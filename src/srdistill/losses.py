"""Distillation losses for image translation.

The transfer signal is a pairwise-similarity matrix over encoder activations:
flatten a (C, H, W) feature map to a (C, P) matrix F, form the P x P Gram
matrix S = F^T F of pixel positions (P = H*W), and L2-normalize its rows.
Teacher and student encode the same real input, and the student is penalized
for the mean absolute difference between the two matrices. Because the matrix
lives in position space, teacher and student may have different channel
widths; only the tap's spatial grid must agree.

``semrel_matrix`` and ``sp_loss`` build that signal from generic ops and hold
every P x P matrix in full; they are the explicit definition. The objectives
use ``similarity_loss``, one op that computes the same value in row blocks.
Row normalization is row-local, and the row norms follow from C x C algebra
(||S_i||^2 = F_i^T (F F^T) F_i), so each block of the difference matrix is one
matrix product of the norm-scaled columns against the features. Only the
signs of the difference are kept for backward, one byte per entry, and the
gradient is accumulated block by block. The teacher feature is a constant
target there: a frozen teacher builds no graph, and the op reads only its
data and never gives it a gradient.

Adversarial terms are least-squares (target 1 for real, 0 for fake).
Reconstruction terms blend ground-truth against teacher outputs with weight
alpha on ground truth. There is no identity term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .models import Model
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class DistillConfig:
    """Weights for the distillation objective.

    gamma_a / gamma_b weight the similarity terms per direction (paired
    translation uses gamma_a only). alpha weights ground truth against the
    teacher's output in the reconstruction blend; alpha = 1 disables the
    teacher entirely. cycle_weight is the multiplier on the reconstruction
    blend. Layer names default to each model's declared tap.
    """

    gamma_a: float = 0.5
    gamma_b: float = 0.5
    alpha: float = 0.05
    cycle_weight: float = 10.0
    teacher_layer: str | None = None
    student_layer: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gamma_a < 0.0 or self.gamma_b < 0.0:
            raise ValueError("gamma weights must be >= 0")
        if self.cycle_weight < 0.0:
            raise ValueError("cycle_weight must be >= 0")


@dataclass
class FeatureEncoding:
    """A (C, P) view of a single sample's feature map, P = H*W."""

    values: Tensor
    grid: tuple[int, int]
    channels: int


@dataclass
class ActivationMatrix:
    """Row-normalized P x P similarity matrix plus its source grid."""

    values: Tensor
    grid: tuple[int, int]
    channels: int


def flatten_features(feat: Tensor) -> FeatureEncoding:
    if feat.data.ndim != 4:
        raise ShapeError(f"expected NCHW features, got shape {feat.shape}")
    n, c, h, w = feat.shape
    if n != 1:
        raise ShapeError(f"similarity matrices are per sample; got batch {n}")
    return FeatureEncoding(T.reshape(feat, (c, h * w)), (h, w), c)


def semrel_matrix(feat: Tensor) -> ActivationMatrix:
    """Row-normalized Gram matrix over pixel positions of one feature map."""
    enc = flatten_features(feat)
    raw = T.matmul(T.transpose2d(enc.values), enc.values)
    return ActivationMatrix(T.row_l2_normalize(raw), enc.grid, enc.channels)


def sp_loss(teacher: ActivationMatrix, student: ActivationMatrix) -> Tensor:
    """Mean absolute difference between two activation matrices."""
    if teacher.values.shape != student.values.shape:
        raise _grid_mismatch(teacher.grid, student.grid)
    return T.abs_mean(teacher.values, student.values)


def _grid_mismatch(teacher: tuple[int, int],
                   student: tuple[int, int]) -> ShapeError:
    (th, tw), (sh, sw) = teacher, student
    return ShapeError(
        f"similarity grids differ: teacher {th}x{tw} "
        f"(P={th * tw}) vs student {sh}x{sw} (P={sh * sw}); "
        f"choose taps with matching spatial size"
    )


# rows of the P x P difference matrix held at once: 2**20 entries, 4 MB in
# float32, whatever P is
BLOCK_ELEMS = 2 ** 20


def _scaled_columns(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F diag(1/r), 1/r, F F^T) of a (C, P) map, r the row norms of F^T F.

    All-zero columns give all-zero rows of F^T F and keep inverse norm 0.
    """
    gram = f @ f.T
    r = np.sqrt(np.maximum(((gram @ f) * f).sum(axis=0), 0.0))
    inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
    return f * inv, inv, gram


def similarity_loss(teacher_feat: Tensor, student_feat: Tensor) -> Tensor:
    """Similarity term between NCHW teacher and student features.

    Per sample this is ``sp_loss(semrel_matrix(t), semrel_matrix(s))``; over
    a batch it is the mean over samples. It holds no P x P float buffer: the
    difference matrix is formed ``BLOCK_ELEMS // P`` rows at a time, and
    backward keeps only its signs, as int8. The teacher feature is a constant
    target: only its ``.data`` is read, and it gets no graph and no gradient,
    even when it requires one.
    """
    for role, feat in (("teacher", teacher_feat), ("student", student_feat)):
        if feat.data.ndim != 4:
            raise ShapeError(f"expected NCHW {role} features, got {feat.shape}")
    n, _, h, w = student_feat.shape
    if teacher_feat.shape[2:] != (h, w):
        raise _grid_mismatch(teacher_feat.shape[2:], (h, w))
    if teacher_feat.shape[0] != n:
        raise ShapeError(f"similarity batches differ: teacher "
                         f"{teacher_feat.shape[0]} vs student {n}")
    dtype = np.result_type(teacher_feat.data, student_feat.data)
    p = h * w
    fs_all = student_feat.data.reshape(n, -1, p).astype(dtype, copy=False)
    ft_all = teacher_feat.data.reshape(n, -1, p).astype(dtype, copy=False)
    rows = min(p, max(1, BLOCK_ELEMS // p))
    blocks = [slice(lo, min(lo + rows, p)) for lo in range(0, p, rows)]
    # block buffers are reused: a fresh 4 MB array per block costs more in
    # page faults than the block's arithmetic
    buf = np.empty((rows, p), dtype=dtype)
    pos = np.empty((rows, p), dtype=bool)
    neg = np.empty((rows, p), dtype=bool)
    signs = np.empty((n, p, p), dtype=np.int8)
    saved = []
    total = 0.0
    for k in range(n):
        a_s, inv_s, gram_s = _scaled_columns(fs_all[k])
        a_t = _scaled_columns(ft_all[k])[0]
        # block rows of diag(1/r_s) S_s - diag(1/r_t) S_t in one product
        lhs = np.concatenate([a_s, -a_t]).T.copy()
        rhs = np.concatenate([fs_all[k], ft_all[k]])
        for blk in blocks:
            m = blk.stop - blk.start
            d = np.matmul(lhs[blk], rhs, out=buf[:m])
            # int8 signs from two comparisons: np.sign runs at half the speed
            np.subtract(np.greater(d, 0, out=pos[:m]).view(np.int8),
                        np.less(d, 0, out=neg[:m]).view(np.int8),
                        out=signs[k, blk])
            total += float(np.abs(d, out=d).sum(axis=1).sum(dtype=np.float64))
        saved.append((a_s, inv_s, gram_s))

    def backward(g):
        # with A = diag(1/r) S, G = sign(A_s - A_t) and dot_i = G_i . A_i:
        # dF = F (dS + dS^T), dS = diag(1/r) G - diag(dot/r^2) S
        grad = np.empty_like(fs_all)
        for k in range(n):
            fs = fs_all[k]
            a_s, inv_s, gram_s = saved[k]
            df = np.zeros_like(fs)
            q = np.zeros_like(gram_s)
            for blk in blocks:
                gb = buf[:blk.stop - blk.start]
                np.copyto(gb, signs[k, blk])
                hb = gb @ fs.T  # rows of G F^T
                ab = a_s[:, blk]
                dot = np.einsum("bc,cb->b", hb, ab)
                df += ab @ gb
                df[:, blk] += hb.T * inv_s[blk] - (gram_s @ ab) * (dot * inv_s[blk])
                q += (ab * dot) @ ab.T
            df -= q @ fs
            grad[k] = df
        grad *= float(g) / (n * p * p)
        T._accum(student_feat, grad.reshape(student_feat.shape))

    out = np.asarray(total / (n * p * p), dtype=dtype)
    return T._make(out, (student_feat,), backward)


def adversarial_loss(scores: Tensor, target_is_real: bool) -> Tensor:
    """Least-squares GAN loss against a constant 1 (real) or 0 (fake)."""
    fill = 1.0 if target_is_real else 0.0
    target = Tensor(np.full(scores.shape, fill, dtype=scores.data.dtype))
    return T.square_mean(scores, target)


def vanilla_kd_cycle(real: Tensor, teacher_rec: Tensor, student_rec: Tensor,
                     alpha: float) -> Tensor:
    """Blend of L1 to ground truth and L1 to the teacher's reconstruction."""
    gt = T.abs_mean(student_rec, real)
    kd = T.abs_mean(student_rec, teacher_rec)
    return T.add(T.scale(gt, alpha), T.scale(kd, 1.0 - alpha))


def discriminator_loss(disc: Model, real: Tensor, fake: Tensor) -> Tensor:
    """Halved sum of real and fake least-squares terms."""
    loss_real = adversarial_loss(disc.forward(real), True)
    loss_fake = adversarial_loss(disc.forward(fake), False)
    return T.scale(T.add(loss_real, loss_fake), 0.5)


def _zero(like: Tensor) -> Tensor:
    return Tensor(np.zeros((), dtype=like.data.dtype))


def _translate(gen: Model, teacher: Model | None, x: Tensor,
               cfg: DistillConfig, use_sp: bool, use_kd: bool
               ) -> tuple[Tensor, Tensor, Tensor | None]:
    """(similarity term, student output, teacher output) for one input.

    The teacher runs only when a term needs it; without similarity the
    term is a constant zero and the teacher output is None unless use_kd.
    """
    if use_sp:
        feat, fake = gen.forward_split(x, cfg.student_layer)
        tfeat, fake_t = teacher.forward_split(x, cfg.teacher_layer)
        return similarity_loss(tfeat, feat), fake, fake_t
    fake = gen.forward(x)
    fake_t = teacher.forward(x) if use_kd else None
    return _zero(x), fake, fake_t


@dataclass
class CycleTerms:
    """Generator-side terms of the cycle objective, unweighted where named."""

    gan_a: Tensor
    gan_b: Tensor
    sp_a: Tensor
    sp_b: Tensor
    cyc_gt: Tensor
    cyc_kd: Tensor
    total: Tensor
    fake_x: Tensor
    fake_y: Tensor

    def scalars(self) -> dict[str, float]:
        return {k: float(getattr(self, k).data)
                for k in ("gan_a", "gan_b", "sp_a", "sp_b",
                          "cyc_gt", "cyc_kd", "total")}


def full_cycle_objective(g_a: Model, g_b: Model, d_a: Model, d_b: Model,
                         x: Tensor, y: Tensor, cfg: DistillConfig,
                         teacher_a: Model | None = None,
                         teacher_b: Model | None = None) -> CycleTerms:
    """Generator losses for one unpaired step.

    Direction A maps x into y's domain (judged by d_a), direction B the
    reverse. Teachers, when present, supply similarity targets from the same
    real inputs and reconstruction targets through their own cycle. Teacher
    passes are skipped entirely when alpha = 1 and both gammas are 0, so a
    run with those settings is identical to training without a teacher.
    """
    use_kd = cfg.alpha != 1.0
    use_sp_a = cfg.gamma_a != 0.0
    use_sp_b = cfg.gamma_b != 0.0
    if (use_kd or use_sp_a or use_sp_b) and (teacher_a is None or teacher_b is None):
        raise ValueError("teachers required when alpha < 1 or a gamma is nonzero")

    sp_a, fake_y, fake_y_t = _translate(g_a, teacher_a, x, cfg, use_sp_a, use_kd)
    sp_b, fake_x, fake_x_t = _translate(g_b, teacher_b, y, cfg, use_sp_b, use_kd)

    gan_a = adversarial_loss(d_a.forward(fake_y), True)
    gan_b = adversarial_loss(d_b.forward(fake_x), True)

    rec_x = g_b.forward(fake_y)
    rec_y = g_a.forward(fake_x)
    cyc_gt = T.add(T.abs_mean(rec_x, x), T.abs_mean(rec_y, y))
    if use_kd:
        rec_x_t = teacher_b.forward(fake_y_t)
        rec_y_t = teacher_a.forward(fake_x_t)
        cyc_kd = T.add(T.abs_mean(rec_x, rec_x_t), T.abs_mean(rec_y, rec_y_t))
        cycle = T.add(T.scale(cyc_gt, cfg.cycle_weight * cfg.alpha),
                      T.scale(cyc_kd, cfg.cycle_weight * (1.0 - cfg.alpha)))
    else:
        cyc_kd = _zero(x)
        cycle = T.scale(cyc_gt, cfg.cycle_weight)

    total = T.add(gan_a, gan_b)
    if use_sp_a:
        total = T.add(total, T.scale(sp_a, cfg.gamma_a))
    if use_sp_b:
        total = T.add(total, T.scale(sp_b, cfg.gamma_b))
    total = T.add(total, cycle)
    return CycleTerms(gan_a, gan_b, sp_a, sp_b, cyc_gt, cyc_kd, total,
                      fake_x, fake_y)


@dataclass
class PairedTerms:
    """Generator-side terms of the paired objective."""

    gan: Tensor
    sp: Tensor
    l1_gt: Tensor
    l1_kd: Tensor
    total: Tensor
    fake: Tensor

    def scalars(self) -> dict[str, float]:
        return {k: float(getattr(self, k).data)
                for k in ("gan", "sp", "l1_gt", "l1_kd", "total")}


def paired_objective(gen: Model, disc: Model, x: Tensor, y: Tensor,
                     cfg: DistillConfig, teacher: Model | None = None
                     ) -> PairedTerms:
    """Generator losses for one paired step.

    The discriminator is conditional: it scores the input concatenated with
    the (real or generated) output. gamma_a weights the similarity term.
    """
    use_kd = cfg.alpha != 1.0
    use_sp = cfg.gamma_a != 0.0
    if (use_kd or use_sp) and teacher is None:
        raise ValueError("teacher required when alpha < 1 or gamma is nonzero")

    sp, fake, y_t = _translate(gen, teacher, x, cfg, use_sp, use_kd)

    gan = adversarial_loss(disc.forward(T.concat([x, fake], axis=1)), True)
    l1_gt = T.abs_mean(fake, y)
    if use_kd:
        l1_kd = T.abs_mean(fake, y_t)
        recon = T.add(T.scale(l1_gt, cfg.cycle_weight * cfg.alpha),
                      T.scale(l1_kd, cfg.cycle_weight * (1.0 - cfg.alpha)))
    else:
        l1_kd = _zero(x)
        recon = T.scale(l1_gt, cfg.cycle_weight)

    total = gan
    if use_sp:
        total = T.add(total, T.scale(sp, cfg.gamma_a))
    total = T.add(total, recon)
    return PairedTerms(gan, sp, l1_gt, l1_kd, total, fake)
