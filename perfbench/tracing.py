"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions of ``srdistill.tensor``
and ``srdistill.losses`` with timing wrappers, wraps ``Tensor.backward``,
and wraps each returned tensor's ``_backward_fn`` so backward time is
charged to the op that created it. Models are wrapped per instance with
``wrap_model(model, role)``. This works because ``models`` and ``losses``
look ops up as module attributes at call time (``T.conv2d``, ``pad2d``
inside ``conv2d``, ``semrel_matrix`` inside the objectives).

Spans nest. A span's self time is its duration minus the durations of its
direct child spans. Each op is attributed to the innermost enclosing
``losses`` or ``models`` span, which is how similarity ops and their
backward closures are told apart from the rest.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# ops of srdistill.tensor; every other one is "pointwise"
OPS = ("add", "sub", "mul", "scale", "relu", "leaky_relu", "tanh",
       "reduce_sum", "reduce_mean", "abs_mean", "square_mean", "reshape",
       "transpose2d", "matmul", "concat", "row_l2_normalize", "pad2d",
       "conv2d", "conv_transpose2d", "instance_norm")
NAMED_OPS = ("conv2d", "conv_transpose2d", "pad2d", "instance_norm", "matmul",
             "row_l2_normalize", "abs_mean")
LOSS_FUNCS = ("flatten_features", "semrel_matrix", "sp_loss",
              "adversarial_loss", "vanilla_kd_cycle", "discriminator_loss",
              "full_cycle_objective", "paired_objective")
SIMILARITY = ("semrel_matrix", "sp_loss", "flatten_features")
OBJECTIVES = ("full_cycle_objective", "paired_objective")
CONTEXT_CATS = ("losses", "models")
MAX_EVENTS = 500_000


@dataclass
class _Frame:
    name: str
    cat: str
    start: float
    child: float = 0.0


@dataclass
class Tracer:
    """Span recorder with self-time accounting and op attribution."""

    clock: object = time.perf_counter
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    bwd_by_ctx: dict = field(default_factory=lambda: defaultdict(float))
    bytes_by_ctx: dict = field(default_factory=lambda: defaultdict(int))
    conv2d_flop: int = 0
    events: list = field(default_factory=list)  # (name, cat, start, dur)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def push(self, name: str, cat: str) -> _Frame:
        frame = _Frame(name, cat, self.clock())
        self._stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> float:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        dur = end - frame.start
        key = (frame.cat, frame.name)
        self.self_s[key] += dur - frame.child
        self.incl_s[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1].child += dur
        if len(self.events) < MAX_EVENTS:
            self.events.append((frame.name, frame.cat, frame.start, dur))
        return dur

    def add_event(self, name: str, cat: str, start: float, end: float) -> None:
        """Record a finished top-level interval timed elsewhere."""
        if len(self.events) < MAX_EVENTS:
            self.events.append((name, cat, start, end - start))

    def context(self) -> str:
        """Name of the innermost open losses/models span, or "other"."""
        for frame in reversed(self._stack):
            if frame.cat in CONTEXT_CATS:
                return frame.name
        return "other"

    # -- wrappers ------------------------------------------------------------

    def _wrap_span(self, fn, name: str, cat: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.push(name, cat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)

        return wrapper

    def _wrap_op(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.push(name, "tensor")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if any(out is a for a in args):  # e.g. pad2d with padding 0
                return out
            ctx = tracer.context()
            tracer.bytes_by_ctx[ctx] += out.data.nbytes
            if name == "conv2d":
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                _, i, kh, kw = weight.shape
                tracer.conv2d_flop += 2 * out.data.size * i * kh * kw
            if out._backward_fn is not None:
                out._backward_fn = tracer._wrap_backward(out._backward_fn,
                                                         name, ctx)
            return out

        return wrapper

    def _wrap_backward(self, fn, name: str, ctx: str):
        tracer = self

        def timed(g):
            frame = tracer.push(name, "tensor.bwd")
            try:
                fn(g)
            finally:
                tracer.bwd_by_ctx[ctx] += tracer.pop(frame)

        return timed

    def install(self, tensor_mod, losses_mod) -> None:
        """Wrap the library's public functions; undo with :meth:`uninstall`."""
        for name in OPS:
            fn = getattr(tensor_mod, name)
            self._saved.append((tensor_mod, name, fn))
            setattr(tensor_mod, name, self._wrap_op(fn, name))
        for name in LOSS_FUNCS:
            fn = getattr(losses_mod, name)
            self._saved.append((losses_mod, name, fn))
            setattr(losses_mod, name, self._wrap_span(fn, name, "losses"))
        cls = tensor_mod.Tensor
        self._saved.append((cls, "backward", cls.backward))
        cls.backward = self._wrap_span(cls.backward, "backward", "tensor")

    def wrap_model(self, model, role: str) -> None:
        for method in ("forward", "forward_split"):
            fn = getattr(model, method)
            self._saved.append((model, method, None))
            setattr(model, method, self._wrap_span(fn, role, "models"))

    def uninstall(self) -> None:
        while self._saved:
            obj, name, fn = self._saved.pop()
            if fn is None:
                delattr(obj, name)  # instance attribute over the class method
            else:
                setattr(obj, name, fn)

    # -- graph size ----------------------------------------------------------

    @staticmethod
    def graph_bytes(root) -> int:
        """Bytes of op outputs reachable from ``root`` (leaves excluded)."""
        seen: set[int] = set()
        stack = [root]
        total = 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._parents:
                total += node.data.nbytes
                stack.extend(node._parents)
        return total

    # -- output --------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        t0 = min((e[2] for e in self.events), default=0.0)
        events = [{"name": n, "cat": c, "ph": "X", "pid": 1, "tid": 1,
                   "ts": round((s - t0) * 1e6, 3), "dur": round(d * 1e6, 3)}
                  for n, c, s, d in self.events]
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
