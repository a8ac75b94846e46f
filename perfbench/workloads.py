"""Workloads and the distillation step, composed from srdistill's public API.

A step is: generator objective forward with the discriminators frozen,
``total.backward()``, ``discriminator_loss`` on detached fakes and its
backward, a plain-SGD update of students and discriminators, then
``zero_grad`` on every trained model. Teachers are frozen and must never
receive a gradient. Everything runs in float32.

Library functions are called through their module attributes (``L.x``,
``T.x``) so that the tracer's wrappers, installed on those modules, see them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from srdistill import data as D
from srdistill import losses as L
from srdistill import models as M
from srdistill import tensor as T

DTYPE = np.float32
LR = 2e-4
clock = time.perf_counter


class HarnessError(RuntimeError):
    """The step broke one of the harness's own invariants (dtype, frozen teacher)."""


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "cycle" (unpaired, both directions) or "paired"
    resolution: int
    teacher_ngf: int
    student_ngf: int
    ndf: int
    tap: str  # feature tap for teacher and student
    train_samples: int = 8
    test_samples: int = 8  # per domain for "cycle"
    warmup_steps: int = 2  # excluded from step_s
    # rounds of set-up, steps and eval passes; each runs at least one step
    rounds: int = 10


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("cycle64", task="cycle", resolution=64, teacher_ngf=16,
             student_ngf=8, ndf=16, tap="res9", test_samples=16),
    Workload("paired64_p4096", task="paired", resolution=64, teacher_ngf=16,
             student_ngf=8, ndf=16, tap="stem", test_samples=32),
    Workload("paired256", task="paired", resolution=256, teacher_ngf=64,
             student_ngf=16, ndf=64, tap="res9", train_samples=2,
             test_samples=4, warmup_steps=1, rounds=3),
)}


@dataclass
class Setup:
    """Everything one run needs: trained/frozen models and step/eval inputs."""

    workload: Workload
    cfg: L.DistillConfig
    students: list[M.Model]  # cycle: [g_a, g_b]; paired: [g]
    teachers: list[M.Model]
    discs: list[M.Model]
    train: list[tuple[T.Tensor, T.Tensor]]  # (x, y) per step, cycled
    test: list[tuple[M.Model, np.ndarray]]  # (student, uint8 input image)
    timings: dict[str, float]  # phase -> seconds for this set-up
    checkpoint_bytes: int

    @property
    def trained(self) -> list[M.Model]:
        return self.students + self.discs


@dataclass
class StepResult:
    terms: dict[str, float]  # G loss terms, "d_loss", gradient norms
    phases: dict[str, float]  # g_fwd, g_bwd, d_fwd, d_bwd, update (seconds)
    start: float
    end: float

    @property
    def total_s(self) -> float:
        return sum(self.phases.values())


def _rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng([seed, role])


def _load_images(w: Workload, seed: int, root: Path, timings: dict):
    """Generate the dataset, write it as PPM/PGM, read it back.

    Returns (train pairs, test inputs) of uint8 (H, W, 3) images; test inputs
    are tagged with the direction index (0 = A->B, 1 = B->A).
    """
    t0 = clock()
    if w.task == "cycle":
        spec = D.UnpairedDatasetSpec(resolution=w.resolution,
                                     train_samples=w.train_samples,
                                     test_samples=w.test_samples, seed=seed)
        ds = D.gen_unpaired(spec)
        t1 = clock()
        D.save_unpaired(root, spec, ds)
        t2 = clock()
        _, ds = D.load_unpaired(root)
        t3 = clock()
        train = list(zip(ds.train_a, ds.train_b))
        test = [(0, img) for img in ds.test_a] + [(1, img) for img in ds.test_b]
    else:
        spec = D.PairedDatasetSpec(resolution=w.resolution,
                                   train_samples=w.train_samples,
                                   test_samples=w.test_samples, seed=seed)
        train_s, test_s = D.gen_paired(spec)
        t1 = clock()
        D.save_paired(root, spec, train_s, test_s)
        t2 = clock()
        _, train_s, test_s = D.load_paired(root)
        t3 = clock()
        # the generator input is the label map rendered in palette colours
        train = [(D.PALETTE[s.label], s.photo) for s in train_s]
        test = [(0, D.PALETTE[s.label]) for s in test_s]
    timings.update({"data.gen_s": t1 - t0, "data.write_s": t2 - t1,
                    "data.read_s": t3 - t2})
    return train, test


def setup(w: Workload, seed: int, workdir: Path) -> Setup:
    """Build one run's state; ``workdir`` must be a fresh, private directory."""
    timings: dict[str, float] = {}
    t_start = clock()
    train_imgs, test_imgs = _load_images(w, seed, workdir / "data", timings)

    train = [(T.Tensor(D.image_to_tensor(a, DTYPE)),
              T.Tensor(D.image_to_tensor(b, DTYPE))) for a, b in train_imgs]

    t0 = clock()
    n_dir = 2 if w.task == "cycle" else 1

    def gspec(ngf):
        return M.GeneratorSpec("resnet", ngf, resolution=w.resolution)

    dspec = M.DiscriminatorSpec(ndf=w.ndf,
                                in_channels=3 if w.task == "cycle" else 6)
    students = [M.build_generator(gspec(w.student_ngf), _rng(seed, 10 + i),
                                  dtype=DTYPE) for i in range(n_dir)]
    discs = [M.build_discriminator(dspec, _rng(seed, 20 + i), dtype=DTYPE)
             for i in range(n_dir)]
    fresh = [M.build_generator(gspec(w.teacher_ngf), _rng(seed, 30 + i),
                               dtype=DTYPE) for i in range(n_dir)]
    timings["models.build_s"] = clock() - t0

    # teachers go through a checkpoint round trip, as a trained teacher would
    t0 = clock()
    paths = [workdir / f"teacher{i}.ckpt" for i in range(n_dir)]
    for path, model in zip(paths, fresh):
        M.save_model(path, model)
    t1 = clock()
    teachers = [M.load_model(path, dtype=DTYPE) for path in paths]
    t2 = clock()
    timings["serialize.save_s"] = t1 - t0
    timings["serialize.load_s"] = t2 - t1
    checkpoint_bytes = sum(p.stat().st_size for p in paths)
    for t in teachers:
        t.set_requires_grad(False)

    test = [(students[d], img) for d, img in test_imgs]
    cfg = L.DistillConfig(teacher_layer=w.tap, student_layer=w.tap)
    timings["setup_s"] = clock() - t_start
    s = Setup(w, cfg, students, teachers, discs, train, test, timings,
              checkpoint_bytes)
    check_params(s)
    return s


def check_params(s: Setup) -> None:
    for model in s.trained + s.teachers:
        for name, p in model.named_params():
            if p.data.dtype != DTYPE:
                raise HarnessError(f"parameter {name} is {p.data.dtype}, "
                                   f"expected {np.dtype(DTYPE)}")


def _check_output(name: str, t: T.Tensor) -> None:
    if t.data.dtype != DTYPE:
        raise HarnessError(f"step output {name} is {t.data.dtype}, "
                           f"expected {np.dtype(DTYPE)}")


def _generator_objective(s: Setup, x: T.Tensor, y: T.Tensor):
    """Returns (terms, [(disc, condition, real, fake)] for the D step)."""
    if s.workload.task == "cycle":
        g_a, g_b = s.students
        d_a, d_b = s.discs
        terms = L.full_cycle_objective(g_a, g_b, d_a, d_b, x, y, s.cfg,
                                       *s.teachers)
        # d_a judges domain y (fake_y = g_a(x)); d_b judges domain x
        return terms, [(d_a, None, y, terms.fake_y), (d_b, None, x, terms.fake_x)]
    terms = L.paired_objective(s.students[0], s.discs[0], x, y, s.cfg,
                               s.teachers[0])
    # the conditional discriminator scores the input concatenated with an output
    return terms, [(s.discs[0], x, y, terms.fake)]


def _grad_norm(model: M.Model, all_params: bool = True) -> float:
    grads = [p.grad for p in model.params()]
    if all_params and any(g is None for g in grads):
        raise HarnessError("a trained parameter received no gradient")
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads if g is not None))


def similarity_grad_norms(s: Setup, x: T.Tensor, y: T.Tensor
                          ) -> dict[str, float]:
    """Gradient norm of each student's similarity term on its own.

    The similarity term is a small share of the step's gradient, so an error
    in its backward would hide inside the step's gradient norms.
    """
    inputs = (x, y) if s.workload.task == "cycle" else (x,)
    norms = {}
    for i, (g, t, inp) in enumerate(zip(s.students, s.teachers, inputs)):
        feat_t, _ = t.forward_split(inp, s.cfg.teacher_layer)
        feat_s, _ = g.forward_split(inp, s.cfg.student_layer)
        L.sp_loss(L.semrel_matrix(feat_t), L.semrel_matrix(feat_s)).backward()
        # only the stages up to the tap get a gradient from this term
        norms[f"sp_grad_student{i}"] = _grad_norm(g, all_params=False)
        g.zero_grad()
    return norms


def run_step(s: Setup, index: int, before_backward=None) -> StepResult:
    """One distillation step on training pair ``index`` (cycled).

    ``before_backward(total)`` runs after the generator forward, outside the
    timed phases; the tracer uses it to size the graph. Step 1 (index 0)
    also reports :func:`similarity_grad_norms`, taken before the step.
    """
    x, y = s.train[index % len(s.train)]
    probe = similarity_grad_norms(s, x, y) if index == 0 else {}
    start = clock()
    for d in s.discs:
        d.set_requires_grad(False)
    terms, pairs = _generator_objective(s, x, y)
    t1 = clock()
    if before_backward is not None:
        before_backward(terms.total)
    t1b = clock()
    terms.total.backward()
    t2 = clock()
    for d in s.discs:
        d.set_requires_grad(True)
    d_loss = None
    for disc, cond, real, fake in pairs:
        # detach so the D backward never re-walks the generator graph
        fake = fake.detach()
        if cond is not None:
            real = T.concat([cond, real], axis=1)
            fake = T.concat([cond, fake], axis=1)
        term = L.discriminator_loss(disc, real, fake)
        d_loss = term if d_loss is None else T.add(d_loss, term)
    t3 = clock()
    d_loss.backward()
    t4 = clock()
    # gradient norms let the output check see the backward pass, not the
    # forward alone; they are taken outside the timed phases
    grad_norms = {f"grad_{role}{i}": _grad_norm(model)
                  for role, models in (("student", s.students),
                                       ("disc", s.discs))
                  for i, model in enumerate(models)}
    t5 = clock()
    for model in s.trained:
        for p in model.params():
            p.data -= LR * p.grad
        model.zero_grad()
    end = clock()

    scalars = terms.scalars()
    scalars["d_loss"] = float(d_loss.data)
    scalars.update(grad_norms)
    scalars.update(probe)
    for name in ("total", "fake_x", "fake_y", "fake"):
        if hasattr(terms, name):
            _check_output(name, getattr(terms, name))
    _check_output("d_loss", d_loss)
    for model in s.teachers:
        if any(p.grad is not None for p in model.params()):
            raise HarnessError("a frozen teacher received a gradient")
    return StepResult(scalars, {"g_fwd": t1 - start, "g_bwd": t2 - t1b,
                                "d_fwd": t3 - t2, "d_bwd": t4 - t3,
                                "update": end - t5}, start, end)


@dataclass
class EvalResult:
    seconds: float  # student forward including image_to_tensor/tensor_to_image
    convert_s: float
    output: np.ndarray  # float output tensor data
    image: np.ndarray  # uint8 image it maps to


def run_eval(s: Setup) -> list[EvalResult]:
    """Translate the test split forward-only, with no graph recorded."""
    for g in s.students:
        g.set_requires_grad(False)
    results = []
    try:
        for g, img in s.test:
            t0 = clock()
            x = T.Tensor(D.image_to_tensor(img, DTYPE))
            t1 = clock()
            out = g.forward(x)
            t2 = clock()
            result_img = D.tensor_to_image(out.data)
            t3 = clock()
            results.append(EvalResult(t3 - t0, (t1 - t0) + (t3 - t2),
                                      out.data, result_img))
    finally:
        for g in s.students:
            g.set_requires_grad(True)
    return results
