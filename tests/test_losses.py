"""Loss tests: similarity-matrix oracle, invariances, reduction identities."""

import math
import tracemalloc

import numpy as np
import pytest

import gradsuite
from srdistill import tensor as T
from srdistill.losses import (
    ActivationMatrix,
    DistillConfig,
    adversarial_loss,
    discriminator_loss,
    flatten_features,
    full_cycle_objective,
    paired_objective,
    semrel_matrix,
    similarity_loss,
    sp_loss,
    vanilla_kd_cycle,
)
from srdistill.data import image_to_tensor
from srdistill.models import (
    DiscriminatorSpec,
    GeneratorSpec,
    build_discriminator,
    build_generator,
    build_model,
    load_model,
    save_model,
)
from srdistill.tensor import ShapeError, Tensor


# ---------------------------------------------------------------------------
# similarity matrix


def semrel_loops(feat):
    """Double-loop oracle over pixel pairs, plain float math."""
    _, c, h, w = feat.shape
    cols = feat.reshape(c, h * w)
    p = h * w
    raw = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            raw[i, j] = sum(cols[k, i] * cols[k, j] for k in range(c))
    out = np.zeros_like(raw)
    for i in range(p):
        norm = np.sqrt((raw[i] ** 2).sum())
        if norm > 0:
            out[i] = raw[i] / norm
    return out


def test_semrel_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    feat = rng.normal(size=(1, 5, 3, 4))
    got = semrel_matrix(Tensor(feat)).values.data
    assert got.shape == (12, 12)
    assert np.max(np.abs(got - semrel_loops(feat))) < 1e-6


def test_semrel_orthonormal_columns_give_identity():
    # columns of the (C, P) view form an orthonormal set
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 4)))
    feat = q.reshape(1, 6, 2, 2)
    got = semrel_matrix(Tensor(feat)).values.data
    assert np.max(np.abs(got - np.eye(4))) < 1e-10


def test_semrel_equal_columns_give_uniform_rows():
    feat = np.ones((1, 3, 2, 2)) * 0.7
    got = semrel_matrix(Tensor(feat)).values.data
    assert np.max(np.abs(got - 0.5)) < 1e-12  # 1/sqrt(P) with P = 4


def test_semrel_invariant_to_positive_scaling():
    rng = np.random.default_rng(2)
    feat = rng.normal(size=(1, 4, 3, 3))
    a = semrel_matrix(Tensor(feat)).values.data
    b = semrel_matrix(Tensor(37.5 * feat)).values.data
    assert np.max(np.abs(a - b)) < 1e-10


def test_semrel_invariant_to_orthogonal_channel_mixing():
    rng = np.random.default_rng(3)
    c = 6
    feat = rng.normal(size=(1, c, 3, 3))
    q, _ = np.linalg.qr(rng.normal(size=(c, c)))
    mixed = np.einsum("dc,nchw->ndhw", q, feat)
    a = semrel_matrix(Tensor(feat)).values.data
    b = semrel_matrix(Tensor(mixed)).values.data
    assert np.max(np.abs(a - b)) < 1e-8


def test_semrel_rows_are_unit_or_zero():
    rng = np.random.default_rng(4)
    feat = rng.normal(size=(1, 3, 4, 4))
    feat[0, :, 0, 0] = 0.0  # one dead pixel position
    vals = semrel_matrix(Tensor(feat)).values.data
    norms = np.linalg.norm(vals, axis=1)
    assert norms[0] == 0.0
    assert np.max(np.abs(norms[1:] - 1.0)) < 1e-12


def test_raw_gram_is_symmetric_psd():
    rng = np.random.default_rng(5)
    f = flatten_features(Tensor(rng.normal(size=(1, 4, 3, 3))))
    raw = T.matmul(T.transpose2d(f), f).data
    assert np.max(np.abs(raw - raw.T)) < 1e-12
    assert np.linalg.eigvalsh(raw).min() > -1e-10


def test_semrel_width_independence():
    # same positions similarity from different channel widths still comparable
    rng = np.random.default_rng(6)
    wide = rng.normal(size=(1, 16, 3, 3))
    slim = rng.normal(size=(1, 4, 3, 3))
    a = semrel_matrix(Tensor(wide))
    b = semrel_matrix(Tensor(slim))
    assert a.values.shape == b.values.shape == (9, 9)
    assert float(sp_loss(a, b).data) > 0.0


def test_flatten_features_rejects_batches():
    with pytest.raises(ShapeError):
        flatten_features(Tensor(np.zeros((2, 3, 4, 4))))
    with pytest.raises(ShapeError):
        flatten_features(Tensor(np.zeros((3, 4, 4))))


def test_sp_loss_hand_value():
    t = ActivationMatrix(Tensor(np.eye(2)), (1, 2))
    s = ActivationMatrix(Tensor(np.full((2, 2), 0.5)), (1, 2))
    assert float(sp_loss(t, s).data) == pytest.approx(0.5, abs=1e-12)


def test_sp_loss_mismatch_names_both_grids():
    t = ActivationMatrix(Tensor(np.eye(16)), (4, 4))
    s = ActivationMatrix(Tensor(np.eye(4)), (2, 2))
    with pytest.raises(ShapeError) as exc:
        sp_loss(t, s)
    assert "4x4" in str(exc.value) and "2x2" in str(exc.value)


def test_sp_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    teacher = semrel_matrix(Tensor(rng.normal(size=(1, 6, 3, 3))))
    feat = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
    report = gradsuite.grad_check_many(
        lambda: sp_loss(teacher, semrel_matrix(feat)), {"feat": feat})
    assert report.passed, report.max_rel_err


# ---------------------------------------------------------------------------
# scalar losses


def test_adversarial_loss_hand_value():
    scores = Tensor(np.array([0.5, 1.5]))
    assert float(adversarial_loss(scores, False).data) == pytest.approx(1.25)
    assert float(adversarial_loss(scores, True).data) == pytest.approx(0.25)


def test_vanilla_kd_cycle_hand_value():
    real = Tensor(np.array([0.4, 0.4]))
    rec_t = Tensor(np.array([0.2, 0.2]))
    rec_s = Tensor(np.zeros(2))
    got = vanilla_kd_cycle(real, rec_t, rec_s, alpha=0.05)
    assert float(got.data) == pytest.approx(0.05 * 0.4 + 0.95 * 0.2, abs=1e-12)


def test_vanilla_kd_cycle_endpoints():
    rng = np.random.default_rng(8)
    real = Tensor(rng.normal(size=(4,)))
    rec_t = Tensor(rng.normal(size=(4,)))
    rec_s = Tensor(rng.normal(size=(4,)))
    at_one = vanilla_kd_cycle(real, rec_t, rec_s, 1.0)
    assert float(at_one.data) == float(T.abs_mean(rec_s, real).data)
    at_zero = vanilla_kd_cycle(real, rec_t, rec_s, 0.0)
    assert float(at_zero.data) == float(T.abs_mean(rec_s, rec_t).data)


def test_distill_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(alpha=1.5)
    with pytest.raises(ValueError):
        DistillConfig(gamma_a=-0.1)
    with pytest.raises(ValueError):
        DistillConfig(cycle_weight=-1.0)


@pytest.mark.parametrize("field", ["gamma_a", "gamma_b", "cycle_weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_distill_config_rejects_non_finite_weights(field, value):
    # a NaN fails every comparison, so a `< 0` check alone lets it make
    # every total NaN
    with pytest.raises(ValueError, match=field):
        DistillConfig(**{field: value})


# ---------------------------------------------------------------------------
# full objectives on tiny models


def _tiny_setup(seed=0):
    rng = np.random.default_rng(seed)
    mk_g = lambda ngf, nb: build_generator(
        GeneratorSpec("resnet", ngf, nb, resolution=16), rng, dtype=np.float64)
    mk_d = lambda: build_discriminator(DiscriminatorSpec(ndf=4, n_layers=1), rng,
                                       dtype=np.float64)
    g_a, g_b = mk_g(4, 1), mk_g(4, 1)
    d_a, d_b = mk_d(), mk_d()
    t_a, t_b = mk_g(8, 2), mk_g(8, 2)
    for t in (t_a, t_b):
        t.set_requires_grad(False)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    y = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    return g_a, g_b, d_a, d_b, t_a, t_b, x, y


def test_full_objective_formula_recomposition():
    g_a, g_b, d_a, d_b, t_a, t_b, x, y = _tiny_setup()
    cfg = DistillConfig(gamma_a=0.7, gamma_b=0.3, alpha=0.05, cycle_weight=10.0)
    terms = full_cycle_objective(g_a, g_b, d_a, d_b, x, y, cfg, t_a, t_b)
    s = terms.scalars()
    want = (s["gan_a"] + s["gan_b"] + 0.7 * s["sp_a"] + 0.3 * s["sp_b"]
            + 10.0 * (0.05 * s["cyc_gt"] + 0.95 * s["cyc_kd"]))
    assert s["total"] == pytest.approx(want, abs=1e-12)


def test_plain_reduction_is_bitwise():
    # gamma = 0, alpha = 1 with teachers wired in must equal teacher-free runs
    g_a, g_b, d_a, d_b, t_a, t_b, x, y = _tiny_setup(seed=1)
    cfg = DistillConfig(gamma_a=0.0, gamma_b=0.0, alpha=1.0)
    with_t = full_cycle_objective(g_a, g_b, d_a, d_b, x, y, cfg, t_a, t_b)
    without = full_cycle_objective(g_a, g_b, d_a, d_b, x, y, cfg)
    assert np.array_equal(with_t.total.data, without.total.data)
    assert float(with_t.sp_a.data) == 0.0
    assert float(with_t.cyc_kd.data) == 0.0
    plain = (float(with_t.gan_a.data) + float(with_t.gan_b.data)
             + 10.0 * float(with_t.cyc_gt.data))
    assert float(with_t.total.data) == pytest.approx(plain, abs=1e-12)


def test_objective_requires_teachers_when_distilling():
    g_a, g_b, d_a, d_b, _, _, x, y = _tiny_setup(seed=2)
    with pytest.raises(ValueError):
        full_cycle_objective(g_a, g_b, d_a, d_b, x, y, DistillConfig())


def test_teacher_accumulates_no_gradients():
    g_a, g_b, d_a, d_b, t_a, t_b, x, y = _tiny_setup(seed=3)
    d_a.set_requires_grad(False)
    d_b.set_requires_grad(False)
    terms = full_cycle_objective(g_a, g_b, d_a, d_b, x, y, DistillConfig(),
                                 t_a, t_b)
    terms.total.backward()
    assert all(t.grad is None for t in t_a.params())
    assert all(t.grad is None for t in d_a.params())
    student_grads = [t.grad for t in g_a.params()]
    assert all(g is not None for g in student_grads)
    assert any(np.any(g != 0) for g in student_grads)


def test_mismatched_tap_resolutions_fail_loudly():
    g_a, g_b, d_a, d_b, t_a, t_b, x, y = _tiny_setup(seed=4)
    cfg = DistillConfig(teacher_layer="stem")  # full res vs quarter res tap
    with pytest.raises(ShapeError) as exc:
        full_cycle_objective(g_a, g_b, d_a, d_b, x, y, cfg, t_a, t_b)
    assert "16x16" in str(exc.value) and "4x4" in str(exc.value)


class _CountingTeacher:
    """Stands in for a frozen teacher model and records each pass it runs."""

    def __init__(self, model):
        self.model, self.calls = model, []

    def forward(self, x):
        self.calls.append("forward")
        return self.model.forward(x)

    def forward_split(self, x, layer=None):
        self.calls.append("forward_split")
        return self.model.forward_split(x, layer)


FWD, SPLIT = "forward", "forward_split"


@pytest.mark.parametrize("alpha, gammas, calls_a, calls_b", [
    (1.0, (0.0, 0.0), [], []),
    (0.05, (0.0, 0.0), [FWD, FWD], [FWD, FWD]),
    (1.0, (0.5, 0.5), [SPLIT], [SPLIT]),
    (0.05, (0.5, 0.5), [SPLIT, FWD], [SPLIT, FWD]),
    (1.0, (0.5, 0.0), [SPLIT], []),
    (0.05, (0.5, 0.0), [SPLIT, FWD], [FWD, FWD]),
])
def test_cycle_objective_runs_only_the_teacher_passes_a_term_needs(
        alpha, gammas, calls_a, calls_b):
    # a teacher feature is needed only for a nonzero gamma, and a teacher
    # output (and cycle) only for alpha < 1; every needed pass runs once
    g_a, g_b, d_a, d_b, t_a, t_b, x, y = _tiny_setup(seed=9)
    cfg = DistillConfig(gamma_a=gammas[0], gamma_b=gammas[1], alpha=alpha)
    c_a, c_b = _CountingTeacher(t_a), _CountingTeacher(t_b)
    counted = full_cycle_objective(g_a, g_b, d_a, d_b, x, y, cfg, c_a, c_b)
    assert (c_a.calls, c_b.calls) == (calls_a, calls_b)
    direct = full_cycle_objective(g_a, g_b, d_a, d_b, x, y, cfg, t_a, t_b)
    assert counted.scalars() == direct.scalars()


@pytest.mark.parametrize("alpha, gamma, calls", [
    (1.0, 0.0, []),
    (0.5, 0.0, [FWD]),
    (1.0, 0.5, [SPLIT]),
    (0.5, 0.5, [SPLIT]),
])
def test_paired_objective_runs_only_the_teacher_passes_a_term_needs(alpha, gamma, calls):
    rng = np.random.default_rng(10)
    gen = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16), rng,
                          dtype=np.float64)
    teacher = build_generator(GeneratorSpec("resnet", 8, 1, resolution=16), rng,
                              dtype=np.float64)
    teacher.set_requires_grad(False)
    disc = build_discriminator(DiscriminatorSpec(ndf=4, n_layers=1, in_channels=6), rng,
                               dtype=np.float64)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    y = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    cfg = DistillConfig(gamma_a=gamma, alpha=alpha)
    counting = _CountingTeacher(teacher)
    counted = paired_objective(gen, disc, x, y, cfg, counting)
    assert counting.calls == calls
    assert counted.scalars() == paired_objective(gen, disc, x, y, cfg, teacher).scalars()


def test_discriminator_loss_is_halved_sum():
    _, _, d_a, _, _, _, x, y = _tiny_setup(seed=5)
    loss = discriminator_loss(d_a, x, y)
    real = adversarial_loss(d_a.forward(x), True)
    fake = adversarial_loss(d_a.forward(y), False)
    want = 0.5 * (float(real.data) + float(fake.data))
    assert float(loss.data) == pytest.approx(want, abs=1e-12)


def test_paired_objective_formula_and_reduction():
    rng = np.random.default_rng(6)
    gen = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16), rng,
                          dtype=np.float64)
    teacher = build_generator(GeneratorSpec("resnet", 8, 1, resolution=16), rng,
                              dtype=np.float64)
    teacher.set_requires_grad(False)
    disc = build_discriminator(
        DiscriminatorSpec(ndf=4, n_layers=1, in_channels=6), rng, dtype=np.float64)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    y = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))

    cfg = DistillConfig(gamma_a=1.0, alpha=0.5, cycle_weight=100.0)
    s = paired_objective(gen, disc, x, y, cfg, teacher).scalars()
    want = s["gan"] + 1.0 * s["sp"] + 100.0 * (0.5 * s["l1_gt"] + 0.5 * s["l1_kd"])
    assert s["total"] == pytest.approx(want, abs=1e-10)

    plain_cfg = DistillConfig(gamma_a=0.0, gamma_b=0.0, alpha=1.0,
                              cycle_weight=100.0)
    with_t = paired_objective(gen, disc, x, y, plain_cfg, teacher)
    without = paired_objective(gen, disc, x, y, plain_cfg)
    assert np.array_equal(with_t.total.data, without.total.data)


def test_float32_objectives_stay_float32():
    # every weighted term goes through T.scale on a 0-d loss; a float64 term
    # would make the next T.add reject the float32 sum
    rng = np.random.default_rng(8)
    f32 = np.float32
    mk_g = lambda ngf: build_generator(GeneratorSpec("resnet", ngf, 1, resolution=16),
                                       rng, dtype=f32)
    mk_d = lambda c: build_discriminator(DiscriminatorSpec(ndf=4, n_layers=1,
                                                           in_channels=c), rng, dtype=f32)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)).astype(f32))
    y = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)).astype(f32))
    cfg = DistillConfig(gamma_a=0.7, gamma_b=0.3, alpha=0.5, cycle_weight=10.0)
    t_a, t_b = mk_g(8), mk_g(8)
    for t in (t_a, t_b):
        t.set_requires_grad(False)
    cycle = full_cycle_objective(mk_g(4), mk_g(4), mk_d(3), mk_d(3), x, y, cfg, t_a, t_b)
    paired = paired_objective(mk_g(4), mk_d(6), x, y, cfg, t_a)
    for terms in (cycle, paired):
        assert terms.total.dtype == f32
        terms.total.backward()


def test_default_built_student_distils_from_a_default_loaded_teacher(tmp_path):
    # no dtype anywhere: build_model, load_model and image_to_tensor share
    # one default, so a fresh student trains against a saved teacher
    rng = np.random.default_rng(16)
    gspec = lambda ngf: GeneratorSpec("resnet", ngf, 1, resolution=16)
    teachers = []
    for i in range(2):
        save_model(tmp_path / f"t{i}.ckpt", build_model(gspec(8), rng))
        teachers.append(load_model(tmp_path / f"t{i}.ckpt"))
        teachers[-1].set_requires_grad(False)
    img = lambda: rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    x, y = Tensor(image_to_tensor(img())), Tensor(image_to_tensor(img()))
    cfg = DistillConfig(gamma_a=0.5, gamma_b=0.5, alpha=0.05)
    mk_d = lambda c: build_model(DiscriminatorSpec(ndf=4, n_layers=1, in_channels=c), rng)
    paired = paired_objective(build_model(gspec(4), rng), mk_d(6), x, y, cfg, teachers[0])
    cycle = full_cycle_objective(build_model(gspec(4), rng), build_model(gspec(4), rng),
                                 mk_d(3), mk_d(3), x, y, cfg, *teachers)
    for terms in (paired, cycle):
        assert terms.total.dtype == np.float32
        terms.total.backward()
    assert all(p.grad is None for t in teachers for p in t.params())


def _directional_derivatives(loss, params, rng, eps=1e-6):
    """(backward, central difference) derivative of ``loss()`` along one
    random unit direction over all of ``params``. Unit length keeps each
    element's step far below ``eps``; steps of ``eps`` times N(0, 1) in
    every element cross relu and |x| kinks at these shapes."""
    for t in params:
        t.grad = None
    loss().backward()
    direction = [rng.normal(size=t.shape) for t in params]
    norm = math.sqrt(sum(float((v * v).sum()) for v in direction))
    direction = [v / norm for v in direction]
    analytic = sum(float((t.grad * v).sum()) for t, v in zip(params, direction))
    origin = [t.data.copy() for t in params]

    def at(step):
        for t, o, v in zip(params, origin, direction):
            t.data[...] = o + step * v
        return float(loss().data)

    numeric = (at(eps) - at(-eps)) / (2 * eps)
    for t, o in zip(params, origin):
        t.data[...] = o
    return analytic, numeric


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("regime", ["cycle", "paired"])
def test_whole_objective_gradients_match_central_differences(regime, alpha, gamma):
    # the objective's total over every student parameter, then the
    # discriminator loss over every discriminator parameter, in float64
    rng = np.random.default_rng(17)
    mk_g = lambda ngf: build_generator(GeneratorSpec("resnet", ngf, 1, resolution=16),
                                       rng, dtype=np.float64)
    mk_d = lambda c: build_discriminator(DiscriminatorSpec(ndf=2, n_layers=1,
                                                           in_channels=c),
                                         rng, dtype=np.float64)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    y = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
    cfg = DistillConfig(gamma_a=gamma, gamma_b=gamma, alpha=alpha)
    n_dir = 2 if regime == "cycle" else 1
    students, teachers = [mk_g(2) for _ in range(n_dir)], [mk_g(4) for _ in range(n_dir)]
    discs = [mk_d(3 if regime == "cycle" else 6) for _ in range(n_dir)]
    for t in teachers:
        t.set_requires_grad(False)

    def objective():
        if regime == "cycle":
            return full_cycle_objective(*students, *discs, x, y, cfg, *teachers)
        return paired_objective(students[0], discs[0], x, y, cfg, teachers[0])

    def d_loss():
        terms = objective()
        if regime == "cycle":
            return T.add(discriminator_loss(discs[0], y, terms.fake_y.detach()),
                         discriminator_loss(discs[1], x, terms.fake_x.detach()))
        return discriminator_loss(discs[0], T.concat([x, y], axis=1),
                                  T.concat([x, terms.fake.detach()], axis=1))

    for d in discs:
        d.set_requires_grad(False)
    g_params = [t for g in students for t in g.params()]
    analytic, numeric = _directional_derivatives(lambda: objective().total, g_params, rng)
    assert analytic == pytest.approx(numeric, rel=1e-6)
    for d in discs:
        d.set_requires_grad(True)
    for g in students:
        g.set_requires_grad(False)
    d_params = [t for d in discs for t in d.params()]
    analytic, numeric = _directional_derivatives(d_loss, d_params, rng)
    assert analytic == pytest.approx(numeric, rel=1e-6)
    assert all(t.grad is None for teacher in teachers for t in teacher.params())


def test_zero_features_give_zero_matrix_without_nan():
    vals = semrel_matrix(Tensor(np.zeros((1, 3, 2, 2)))).values.data
    assert np.array_equal(vals, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# fused similarity loss against the explicit-matrix composite


def _composite(teacher, student):
    """sp_loss(semrel_matrix(t), semrel_matrix(s)); loss and student grad."""
    s = Tensor(student.copy(), requires_grad=True)
    loss = sp_loss(semrel_matrix(Tensor(teacher)), semrel_matrix(s))
    loss.backward()
    return float(loss.data), s.grad


def _fused(teacher, student):
    s = Tensor(student.copy(), requires_grad=True)
    loss = similarity_loss(Tensor(teacher), s)
    loss.backward()
    return float(loss.data), s.grad


def _features(seed, ct, cs, h, w, n=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    teacher = np.maximum(rng.normal(size=(n, ct, h, w)), 0.0)  # post-ReLU
    student = rng.normal(size=(n, cs, h, w))
    return teacher.astype(dtype), student.astype(dtype)


# (block entries, P): one block; rows not dividing P; one row per block
@pytest.mark.parametrize("block, hw", [(T.BLOCK_ELEMS, (5, 7)),
                                       (4 * 35, (5, 7)),
                                       (7, (3, 4))])
def test_similarity_loss_matches_composite_float64(monkeypatch, block, hw):
    monkeypatch.setattr(T, "BLOCK_ELEMS", block)
    teacher, student = _features(10, 6, 3, *hw)
    want_loss, want_grad = _composite(teacher, student)
    got_loss, got_grad = _fused(teacher, student)
    assert abs(got_loss - want_loss) < 1e-12
    assert np.max(np.abs(got_grad - want_grad)) < 1e-12


def test_similarity_loss_float32_accuracy():
    teacher, student = _features(11, 16, 8, 24, 20)
    ref_loss, ref_grad = _composite(teacher, student)  # float64 reference
    t32, s32 = teacher.astype(np.float32), student.astype(np.float32)
    loss32, _ = _composite(t32, s32)
    got_loss, got_grad = _fused(t32, s32)
    assert got_grad.dtype == np.float32
    assert abs(got_loss - loss32) <= 1e-5 * loss32
    ref_norm = np.linalg.norm(ref_grad)
    assert abs(np.linalg.norm(got_grad.astype(np.float64)) - ref_norm) <= 1e-5 * ref_norm


def test_similarity_loss_zero_columns_give_zero_rows_without_nan():
    teacher, student = _features(12, 4, 3, 4, 4)
    student[0, :, 1, 2] = 0.0  # dead pixel positions on both sides
    teacher[0, :, 3, 0] = 0.0
    want_loss, want_grad = _composite(teacher, student)
    got_loss, got_grad = _fused(teacher, student)
    assert np.isfinite(got_loss) and np.isfinite(got_grad).all()
    assert abs(got_loss - want_loss) < 1e-12
    assert np.max(np.abs(got_grad - want_grad)) < 1e-12
    zero_loss, zero_grad = _fused(np.zeros((1, 2, 3, 3)), np.zeros((1, 3, 3, 3)))
    assert zero_loss == 0.0 and np.array_equal(zero_grad, np.zeros((1, 3, 3, 3)))


def test_similarity_loss_gives_the_teacher_no_gradient():
    teacher, student = _features(13, 4, 2, 3, 3)
    t = Tensor(teacher, requires_grad=True)
    s = Tensor(student, requires_grad=True)
    similarity_loss(t, s).backward()
    assert t.grad is None
    assert s.grad is not None and np.any(s.grad != 0.0)


def test_similarity_loss_batch_is_the_mean_over_samples():
    teacher, student = _features(14, 5, 3, 3, 4, n=2)
    got_loss, got_grad = _fused(teacher, student)
    loss0, grad0 = _fused(teacher[:1], student[:1])
    loss1, grad1 = _fused(teacher[1:], student[1:])
    assert got_loss == pytest.approx(0.5 * (loss0 + loss1), abs=1e-15)
    assert np.max(np.abs(got_grad - 0.5 * np.concatenate([grad0, grad1]))) < 1e-15


def test_similarity_loss_shape_errors():
    with pytest.raises(ShapeError) as exc:
        similarity_loss(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 2, 2, 2))))
    assert "4x4" in str(exc.value) and "2x2" in str(exc.value)
    with pytest.raises(ShapeError):
        similarity_loss(Tensor(np.ones((2, 2, 2, 2))), Tensor(np.ones((1, 2, 2, 2))))
    with pytest.raises(ShapeError):
        similarity_loss(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 2, 4, 4))))


@pytest.mark.parametrize("teacher_dtype, student_dtype",
                         [(np.float64, np.float32), (np.float32, np.float64)])
def test_similarity_loss_rejects_mixed_dtypes(teacher_dtype, student_dtype):
    # as every other two-operand op: no silent promotion of the loss
    teacher = Tensor(np.ones((1, 4, 3, 3), dtype=teacher_dtype))
    student = Tensor(np.ones((1, 2, 3, 3), dtype=student_dtype), requires_grad=True)
    with pytest.raises(TypeError, match="dtypes"):
        similarity_loss(teacher, student)


def test_similarity_loss_memory_at_p4096():
    # the composite peaks near 450 MB here: six 64 MB P x P buffers
    teacher, student = _features(15, 16, 8, 64, 64, dtype=np.float32)
    t = Tensor(teacher)
    s = Tensor(student, requires_grad=True)
    tracemalloc.start()
    try:
        similarity_loss(t, s).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.grad is not None
    assert peak < 40 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
