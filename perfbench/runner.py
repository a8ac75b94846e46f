"""Runs one workload: set-ups, warm-up, timed steps, optional traced steps, eval.

The time budget goes 80% to steps and 20% to passes over the test split.
The machine's speed drifts over tens of seconds, so an untraced run is cut
into rounds that each time one more set-up, then run steps, then eval
passes: all three end-to-end times sample the whole run rather than one
stretch of it. With ``trace`` on, the extra set-ups run back to back first;
then half the step budget runs untraced steps and half traced ones, then the
eval passes. The per-layer metrics come from the traced half and
``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import ctypes
import platform
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads as W
from srdistill import losses as L
from srdistill import tensor as T

MB = 2.0 ** 20
EVAL_SHARE = 0.2  # of --seconds spent translating the test split


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    problems: list[str] = field(default_factory=list)
    reference_checked: bool = False

    def result_line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in self.metrics.items()}}


class _Run:
    """Step/eval bookkeeping for one workload run: failures and problems."""

    def __init__(self, s: W.Setup, reference: dict | None):
        self.s = s
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.index = 0

    def _fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def step(self, before_backward=None) -> W.StepResult | None:
        """One step; a step that raises returns None, a wrong one is still
        returned for its timing. Both count as failed."""
        self.attempted += 1
        index, self.index = self.index, self.index + 1
        try:
            res = W.run_step(self.s, index, before_backward)
        except Exception:  # a step that raises is a failed operation
            self._fail(f"step {index + 1} raised:\n{traceback.format_exc()}")
            return None
        problems = checks.check_terms(res.terms, self.s.cfg)
        if index == 0 and self.reference is not None:
            problems += checks.check_reference(res.terms, self.reference)
        if problems:
            self._fail(f"step {index + 1}: " + "; ".join(problems))
        return res

    def steps(self, deadline: float, min_steps: int, before_backward=None
              ) -> list[W.StepResult]:
        """At least ``min_steps``, then more while one is expected to end by
        ``deadline`` (a ``W.clock()`` time)."""
        done = []
        attempts = 0
        last = 0.0
        while attempts < min_steps or W.clock() + last <= deadline:
            attempts += 1
            t0 = W.clock()
            res = self.step(before_backward)
            last = W.clock() - t0
            if res is not None:
                done.append(res)
        return done

    def evaluate(self, deadline: float) -> list[W.EvalResult]:
        """One pass over the test split, then more while one is expected to
        end by ``deadline``."""
        done = []
        passes = 0
        last = 0.0
        while passes == 0 or W.clock() + last <= deadline:
            passes += 1
            t0 = W.clock()
            self.attempted += len(self.s.test)
            try:
                results = W.run_eval(self.s)
            except Exception:
                self._fail(f"eval raised:\n{traceback.format_exc()}",
                           len(self.s.test))
                continue
            last = W.clock() - t0
            for (_, img), res in zip(self.s.test, results):
                problem = checks.check_eval(res.output, res.image, img)
                if problem:
                    self._fail(problem)
                done.append(res)
        return done


def _median(values) -> float:
    # 0 only when nothing could be timed, which also fails the run
    return statistics.median(values) if values else 0.0


def _timed_setup(w: W.Workload, seed: int, workdir: Path) -> dict[str, float]:
    """Build one more set-up in a fresh directory; returns its timings only."""
    workdir.mkdir()
    timings = W.setup(w, seed, workdir).timings
    shutil.rmtree(workdir, ignore_errors=True)
    return timings


def _traced_steps(r: _Run, deadline: float, trace_path: Path | None):
    """Steps with the tracer installed; returns (tracer, steps, graph bytes)."""
    tracer = tracing.Tracer()
    graph: list[int] = []
    tracer.install(T, L)
    for role, models in (("student", r.s.students), ("teacher", r.s.teachers),
                         ("disc", r.s.discs)):
        for m in models:
            tracer.wrap_model(m, role)
    try:
        traced = r.steps(deadline, 2,
                         lambda total: graph.append(tracer.graph_bytes(total)))
    finally:
        tracer.uninstall()
    for res in traced:
        tracer.add_event("step", "step", res.start, res.end)
    if trace_path is not None:
        tracer.write_chrome_trace(trace_path)
    return tracer, traced, graph


def run(w: W.Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        trace_path: Path | None = None) -> Report:
    """Run workload ``w``; ``workdir`` is a fresh private scratch directory."""
    reference = checks.load_references().get(w.name, {}).get(str(seed))
    (workdir / "setup0").mkdir()
    s = W.setup(w, seed, workdir / "setup0")
    setup_timings = [s.timings]
    r = _Run(s, reference)
    if trace:
        setup_timings += [_timed_setup(w, seed, workdir / f"setup{k + 1}")
                          for k in range(w.rounds)]

    for _ in range(w.warmup_steps):
        r.step()
    untraced, evals = [], []
    start = W.clock()
    if trace:
        step_end = start + seconds * (1.0 - EVAL_SHARE)
        untraced = r.steps((start + step_end) / 2, 2)
        tracer, traced, graph = _traced_steps(r, step_end, trace_path)
        evals = r.evaluate(start + seconds)
    else:
        round_s = seconds / w.rounds
        for k in range(w.rounds):
            end = start + (k + 1) * round_s
            setup_timings.append(
                _timed_setup(w, seed, workdir / f"setup{k + 1}"))
            untraced += r.steps(end - EVAL_SHARE * round_s, 1)
            evals += r.evaluate(end)
    W.check_params(s)

    problems = list(r.problems)
    if not untraced or (trace and not traced) or not evals:
        problems.append("no step or eval image could be timed")
    correct = r.failed == 0 and not problems
    if trace:
        metrics = layer_metrics(tracer, traced, untraced, graph, setup_timings,
                                evals, s.checkpoint_bytes)
    else:
        metrics = {
            "step_s": (_median([x.total_s for x in untraced]), "s"),
            "infer_s": (_median([e.seconds for e in evals]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "setup_s": (_median([t["setup_s"] for t in setup_timings]), "s"),
        }
    return Report(correct, r.attempted, r.failed, metrics, problems,
                  reference is not None)


def layer_metrics(tracer: tracing.Tracer, traced, untraced, graph,
                  setup_timings, evals, checkpoint_bytes
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced step unless the unit says otherwise."""
    n = max(1, len(traced))
    self_s, incl_s = tracer.self_s, tracer.incl_s
    m: dict[str, tuple[float, str]] = {}

    op_s = 0.0
    for direction, cat in (("fwd", "tensor"), ("bwd", "tensor.bwd")):
        secs = {op: self_s.get((cat, op), 0.0) / n for op in tracing.OPS}
        op_s += sum(secs.values())
        for op in tracing.NAMED_OPS:
            m[f"tensor.{op}.{direction}_s"] = (secs[op], "s")
        m[f"tensor.pointwise.{direction}_s"] = (
            sum(v for op, v in secs.items() if op not in tracing.NAMED_OPS),
            "s")
    m["tensor.conv2d.calls"] = (tracer.calls[("tensor", "conv2d")] / n, "count")
    m["tensor.conv2d.gflop"] = (tracer.conv2d_flop / n / 1e9, "GFLOP")
    conv_pad = sum(m[f"tensor.{op}.{d}_s"][0]
                   for op in ("conv2d", "pad2d") for d in ("fwd", "bwd"))
    m["tensor.conv_pad_share"] = (conv_pad / op_s if op_s else 0.0, "frac")
    m["tensor.op_s"] = (op_s, "s")
    m["tensor.backward_walk_s"] = (self_s.get(("tensor", "backward"), 0.0) / n,
                                   "s")
    m["tensor.graph_mb"] = (_median(graph) / MB, "MB")

    for role in ("teacher", "student", "disc"):
        m[f"models.{role}_fwd_s"] = (incl_s.get(("models", role), 0.0) / n, "s")

    step_mean = sum(x.total_s for x in traced) / n
    sim_fwd = sum(incl_s.get(("losses", f), 0.0)
                  for f in ("semrel_matrix", "sp_loss")) / n
    sim_bwd = sum(tracer.bwd_by_ctx.get(f, 0.0) for f in tracing.SIMILARITY) / n
    sim_bytes = sum(tracer.bytes_by_ctx.get(f, 0)
                    for f in tracing.SIMILARITY) / n
    m["losses.similarity_fwd_s"] = (sim_fwd, "s")
    m["losses.similarity_bwd_s"] = (sim_bwd, "s")
    m["losses.similarity_mb"] = (sim_bytes / MB, "MB")
    m["losses.similarity_share"] = ((sim_fwd + sim_bwd) / step_mean, "frac")
    m["losses.objective_fwd_s"] = (sum(incl_s.get(("losses", f), 0.0)
                                       for f in tracing.OBJECTIVES) / n, "s")
    m["losses.disc_loss_fwd_s"] = (
        incl_s.get(("losses", "discriminator_loss"), 0.0) / n, "s")

    for phase in ("g_bwd", "d_bwd", "update"):
        m[f"step.{phase}_s"] = (_median([x.phases[phase] for x in traced]), "s")

    for key in ("data.gen_s", "data.write_s", "data.read_s", "models.build_s",
                "serialize.save_s", "serialize.load_s"):
        m[key] = (_median([t[key] for t in setup_timings]), "s")
    m["data.convert_s"] = (_median([e.convert_s for e in evals]), "s")
    m["serialize.checkpoint_mb"] = (checkpoint_bytes / MB, "MB")

    m["trace.overhead_frac"] = (
        _median([x.total_s for x in traced])
        / _median([x.total_s for x in untraced]) - 1.0, "frac")
    return m


# ---------------------------------------------------------------------------
# run metadata


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> tuple[str, int | None]:
    """BLAS name/version from numpy's build info and its live thread count."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
        break
    return name, threads


def metadata(root: Path, nproc: int) -> dict:
    blas, threads = _blas()
    return {"git_sha": _git_sha(root), "nproc": nproc, "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads}
