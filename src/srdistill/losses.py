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
matrix product of the norm-scaled columns against the features. The
student gradient is formed in the forward, block by block while a block's
signs are at hand, so backward keeps no P x P array, only the (C, P)
gradient, which it scales. The teacher feature is a constant
target there: a frozen teacher builds no graph, and the op reads only its
data and never gives it a gradient.

Adversarial terms are least-squares (target 1 for real, 0 for fake).
Reconstruction terms blend ground-truth against teacher outputs with weight
alpha on ground truth. There is no identity term.

The paired and cycle objectives share one skeleton, so each rule of the
loss is written once. ``_translate_all`` requires the teachers when
alpha < 1 or a gamma is nonzero; ``_translate`` picks a direction's teacher
pass (``forward_split`` when its gamma is nonzero, else ``forward`` when
alpha < 1, else none). ``_weigh`` sums the L1 terms and adds the total in one
order: the GAN terms, each nonzero gamma times its similarity term, then
``_blend``, cycle_weight * (alpha * gt + (1 - alpha) * kd), where kd is zero
and no teacher runs for it when alpha = 1. ``_Terms.scalars`` lists the 0-d
terms. An objective supplies only its regime's passes: which discriminator
judges which output, and what each output is reconstructed against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from . import tensor as T
from .models import Model
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class DistillConfig:
    """Weights for the distillation objective.

    gamma_a / gamma_b weight the similarity terms per direction (paired
    translation uses gamma_a only). alpha weights ground truth against the
    teacher's output in the reconstruction blend; alpha = 1 drops the
    teacher-output term, but the teacher still runs for a nonzero gamma's
    similarity term. cycle_weight is the multiplier on the reconstruction
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
        for name in ("gamma_a", "gamma_b", "cycle_weight"):
            value = getattr(self, name)
            # a NaN fails every comparison, so test for the accepted range
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class ActivationMatrix:
    """Row-normalized P x P similarity matrix plus its source grid."""

    values: Tensor
    grid: tuple[int, int]


def flatten_features(feat: Tensor) -> Tensor:
    """The (C, P) view of a single sample's feature map, P = H*W."""
    if feat.data.ndim != 4:
        raise ShapeError(f"expected NCHW features, got shape {feat.shape}")
    n, c, h, w = feat.shape
    if n != 1:
        raise ShapeError(f"similarity matrices are per sample; got batch {n}")
    return T.reshape(feat, (c, h * w))


def semrel_matrix(feat: Tensor) -> ActivationMatrix:
    """Row-normalized Gram matrix over pixel positions of one feature map."""
    f = flatten_features(feat)
    raw = T.matmul(T.transpose2d(f), f)
    return ActivationMatrix(T.row_l2_normalize(raw), feat.shape[2:])


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
    a batch it is the mean over samples. It holds no P x P buffer: the
    difference matrix is formed ``tensor.BLOCK_ELEMS // P`` rows at a time,
    and each block's share of the student gradient is added at once from the
    block's signs. The teacher feature is a constant target: only its
    ``.data`` is read, and it gets no graph and no gradient, even when it
    requires one.
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
    T._operands("similarity_loss", teacher_feat, student_feat)
    dtype = student_feat.dtype
    p = h * w
    fs_all = student_feat.data.reshape(n, -1, p)
    ft_all = teacher_feat.data.reshape(n, -1, p)
    rows = min(p, max(1, T.BLOCK_ELEMS // p))
    blocks = [slice(lo, min(lo + rows, p)) for lo in range(0, p, rows)]
    # block buffers are reused: a fresh 4 MB array per block costs more in
    # page faults than the block's arithmetic
    buf = np.empty((rows, p), dtype=dtype)
    pos = np.empty((rows, p), dtype=bool)
    neg = np.empty((rows, p), dtype=bool)
    # the gradient of the sum of |A_s - A_t|, formed while a block's signs
    # are at hand
    grad = np.empty_like(fs_all)
    total = 0.0
    for k in range(n):
        fs = fs_all[k]
        a_s, inv_s, gram_s = _scaled_columns(fs)
        a_t = _scaled_columns(ft_all[k])[0]
        # block rows of diag(1/r_s) S_s - diag(1/r_t) S_t in one product
        lhs = np.concatenate([a_s, -a_t]).T.copy()
        rhs = np.concatenate([fs, ft_all[k]])
        df = np.zeros_like(fs)
        q = np.zeros_like(gram_s)
        for blk in blocks:
            m = blk.stop - blk.start
            d = np.matmul(lhs[blk], rhs, out=buf[:m])
            np.greater(d, 0, out=pos[:m])
            np.less(d, 0, out=neg[:m])
            total += float(np.abs(d, out=d).sum(axis=1).sum(dtype=np.float64))
            # |d| is summed, so the buffer takes the block's signs G, the
            # difference of the two comparisons as int8 (np.sign runs at
            # half the speed); with A = diag(1/r) S and dot_i = G_i . A_i:
            # dF = F (dS + dS^T), dS = diag(1/r) G - diag(dot/r^2) S
            gb = np.subtract(pos[:m].view(np.int8), neg[:m].view(np.int8), out=d)
            hb = gb @ fs.T  # rows of G F^T
            ab = a_s[:, blk]
            dot = np.einsum("bc,cb->b", hb, ab)
            df += ab @ gb
            df[:, blk] += hb.T * inv_s[blk] - (gram_s @ ab) * (dot * inv_s[blk])
            q += (ab * dot) @ ab.T
        grad[k] = df - q @ fs

    def backward(g, vs):
        T._adopt(vs, (grad * (float(g) / (n * p * p))).reshape(n, -1, h, w))

    out = np.asarray(total / (n * p * p), dtype=dtype)
    return T._make(out, (student_feat,), backward)


def adversarial_loss(scores: Tensor, target_is_real: bool) -> Tensor:
    """Least-squares GAN loss against a constant 1 (real) or 0 (fake)."""
    fill = 1.0 if target_is_real else 0.0
    target = Tensor(np.full(scores.shape, fill, dtype=scores.data.dtype))
    return T.square_mean(scores, target)


def _blend(gt: Tensor, kd: Tensor | None, weight: float, alpha: float) -> Tensor:
    """weight * (alpha * gt + (1 - alpha) * kd); weight * gt without kd."""
    if kd is None:
        return T.scale(gt, weight)
    return T.add(T.scale(gt, weight * alpha), T.scale(kd, weight * (1.0 - alpha)))


def vanilla_kd_cycle(real: Tensor, teacher_rec: Tensor, student_rec: Tensor,
                     alpha: float) -> Tensor:
    """Blend of L1 to ground truth and L1 to the teacher's reconstruction."""
    return _blend(T.abs_mean(student_rec, real),
                  T.abs_mean(student_rec, teacher_rec), 1.0, alpha)


def discriminator_loss(disc: Model, real: Tensor, fake: Tensor) -> Tensor:
    """Halved sum of real and fake least-squares terms."""
    loss_real = adversarial_loss(disc.forward(real), True)
    loss_fake = adversarial_loss(disc.forward(fake), False)
    return T.scale(T.add(loss_real, loss_fake), 0.5)


def _zero(like: Tensor) -> Tensor:
    return Tensor(np.zeros((), dtype=like.data.dtype))


def _translate(gen: Model, teacher: Model | None, x: Tensor,
               cfg: DistillConfig, gamma: float
               ) -> tuple[Tensor, Tensor, Tensor | None]:
    """(similarity term, student output, teacher output) for one input.

    The teacher runs only when a term needs it: one ``forward_split`` when
    gamma != 0, else one ``forward`` when alpha < 1. Without similarity the
    term is a constant zero; without either the teacher output is None.
    """
    if gamma != 0.0:
        feat, fake = gen.forward_split(x, cfg.student_layer)
        tfeat, fake_t = teacher.forward_split(x, cfg.teacher_layer)
        return similarity_loss(tfeat, feat), fake, fake_t
    fake = gen.forward(x)
    fake_t = teacher.forward(x) if cfg.alpha != 1.0 else None
    return _zero(x), fake, fake_t


def _translate_all(cfg: DistillConfig, students, teachers, inputs, gammas):
    """(similarity terms, student outputs, teacher outputs), one per direction."""
    if ((cfg.alpha != 1.0 or any(g != 0.0 for g in gammas))
            and any(t is None for t in teachers)):
        raise ValueError("teachers required when alpha < 1 or a gamma is nonzero")
    return zip(*(_translate(gen, teacher, x, cfg, gamma) for gen, teacher, x, gamma
                 in zip(students, teachers, inputs, gammas)))


def _weigh(cfg: DistillConfig, gans, sps, gammas, outs, reals, teacher_targets
           ) -> tuple[Tensor, Tensor, Tensor]:
    """(gt, kd, total): the L1 sums of the outputs to their ground truths and
    to ``teacher_targets()``, called only when alpha < 1, and the total."""
    def l1(targets):
        return reduce(T.add, [T.abs_mean(o, t) for o, t in zip(outs, targets)])

    gt = l1(reals)
    kd = l1(teacher_targets()) if cfg.alpha != 1.0 else None
    total = reduce(T.add, gans)
    for sp, gamma in zip(sps, gammas):
        if gamma != 0.0:
            total = T.add(total, T.scale(sp, gamma))
    total = T.add(total, _blend(gt, kd, cfg.cycle_weight, cfg.alpha))
    return gt, (_zero(gt) if kd is None else kd), total


class _Terms:
    def scalars(self) -> dict[str, float]:
        """Each 0-d term by field name, in declaration order."""
        values = {f.name: getattr(self, f.name).data for f in fields(self)}
        return {k: float(v) for k, v in values.items() if v.ndim == 0}


@dataclass
class CycleTerms(_Terms):
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
    gammas = (cfg.gamma_a, cfg.gamma_b)
    sps, (fake_y, fake_x), (fake_y_t, fake_x_t) = _translate_all(
        cfg, (g_a, g_b), (teacher_a, teacher_b), (x, y), gammas)
    gan_a = adversarial_loss(d_a.forward(fake_y), True)
    gan_b = adversarial_loss(d_b.forward(fake_x), True)
    cyc_gt, cyc_kd, total = _weigh(
        cfg, (gan_a, gan_b), sps, gammas,
        (g_b.forward(fake_y), g_a.forward(fake_x)), (x, y),
        lambda: (teacher_b.forward(fake_y_t), teacher_a.forward(fake_x_t)))
    return CycleTerms(gan_a, gan_b, *sps, cyc_gt, cyc_kd, total, fake_x, fake_y)


@dataclass
class PairedTerms(_Terms):
    """Generator-side terms of the paired objective."""

    gan: Tensor
    sp: Tensor
    l1_gt: Tensor
    l1_kd: Tensor
    total: Tensor
    fake: Tensor


def paired_objective(gen: Model, disc: Model, x: Tensor, y: Tensor,
                     cfg: DistillConfig, teacher: Model | None = None
                     ) -> PairedTerms:
    """Generator losses for one paired step.

    The discriminator is conditional: it scores the input concatenated with
    the (real or generated) output. gamma_a weights the similarity term.
    """
    (sp,), (fake,), (y_t,) = _translate_all(cfg, (gen,), (teacher,), (x,),
                                            (cfg.gamma_a,))
    gan = adversarial_loss(disc.forward(T.concat([x, fake], axis=1)), True)
    l1_gt, l1_kd, total = _weigh(cfg, (gan,), (sp,), (cfg.gamma_a,), (fake,), (y,),
                                 lambda: (y_t,))
    return PairedTerms(gan, sp, l1_gt, l1_kd, total, fake)
