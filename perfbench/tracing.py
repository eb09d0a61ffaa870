"""Spans at the layer boundaries of hymad, recorded from outside the package.

`Tracer.installed()` wraps the module attributes the program calls at each
boundary (the functions `forward_batch` calls, the loss, `Tensor.backward`,
the optimizer, checkpoints, metrics and the dataset reader).  A wrapped
layer records a span around its call.  While a graph is being built, a
layer in `CUT_LAYERS` hands its caller a fresh leaf holding its output, so
the step's graph falls apart into one segment per layer call.  The wrapped
`Tensor.backward` then runs the backward pass one segment at a time, seeding
each with `(out * boundary.grad).sum()`, and times each segment.  After every
traced step it rebuilds the monolithic graph with tracing suspended and
checks that logits and parameter gradients are bit-identical.

Spans are held in memory and written out when the run ends.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from hymad import datagen as D
from hymad import functional as F
from hymad import model as M
from hymad import optim as O
from hymad import tensor as TN
from hymad import train as T

# (span name, module, attribute).  Layers whose output becomes a fresh leaf
# while a graph is built; their forward spans nest inside forward_batch.
CUT_LAYERS = (
    ("sincnet.bank_kernels", M, "bank_kernels"),
    ("functional.conv1d_strided", F, "conv1d_strided"),
    ("model.frontend_features", M, "frontend_features"),
    ("functional.rnn_forward", F, "rnn_forward"),
    ("model.self_attention_block", M, "self_attention_block"),
    ("model.cross_fuse", M, "cross_fuse"),
    ("functional.dense", F, "dense"),
)
# Calls that only get a span.
SPAN_CALLS = (
    ("train.train", T, "train"),
    ("train.run_ablations", T, "run_ablations"),
    ("train.evaluate", T, "evaluate"),
    ("train.predict_scores", T, "predict_scores"),
    ("train.save_checkpoint", T, "save_checkpoint"),
    ("train.load_checkpoint", T, "load_checkpoint"),
    ("metrics.compute_report", T, "compute_report"),
    ("metrics.write_curves_csv", T, "write_curves_csv"),
    ("optim.AdamW.zero_grad", O.AdamW, "zero_grad"),
    ("optim.AdamW.step", O.AdamW, "step"),
    ("datagen.build_dataset", D, "build_dataset"),
    ("datagen.save_dataset", D, "save_dataset"),
    ("datagen.load_dataset", D, "load_dataset"),
    ("datagen.verify_shards", D, "verify_shards"),
)
FORWARD = "model.forward_batch.fwd"
LOSS_BWD = "functional.bce_with_logits.bwd"
STEP_END = "optim.AdamW.step"


def _attention_suffix(args, kwargs) -> str:
    prefix = args[2] if len(args) > 2 else kwargs.get("prefix", "")
    return "." + prefix.replace("self_", "")


def walk_graph(root: TN.Tensor) -> list:
    """Every node reachable from `root` through `_parents`, each once."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


@dataclass
class Step:
    """The state of one traced training step, from forward to optimizer."""

    rid: int
    x: object
    cfg: object
    params: dict
    logits: object = None
    targets: object = None
    loss: object = None
    segments: list = field(default_factory=list)   # (name, out, leaf)


class Tracer:
    """Span recorder plus the patches that produce the spans."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []       # [name, start, end, parent, rid]
        self._stack: list[int] = []
        self.rid = None                   # request id: the current step
        self._next_rid = 0
        self.kinds: dict[int, str] = {}   # rid -> "train" | "eval"
        self.step: Step | None = None
        self.suspended = False
        self.engine_s: dict[int, float] = {}
        self.graph: list[tuple[int, int, int]] = []   # nodes, data, grad bytes
        self.grad_checks: list[bool] = []
        self.check_s = 0.0
        self.waits: list[tuple[str, float]] = []   # (kind, seconds)
        # depth -> (time the last step at that depth ended, time spent since
        # in other spans at that depth); the next forward there waited the rest
        self._gaps: dict[int, tuple[float, float]] = {}
        self.shard_bytes = 0

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        now = time.perf_counter()
        depth = len(self._stack)
        if name == FORWARD and depth in self._gaps:
            since, excluded = self._gaps.pop(depth)
            self.waits.append((self.kinds[self.rid], now - since - excluded))
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now, None, parent, self.rid])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        now = time.perf_counter()
        span = self.spans[idx]
        span[2] = now
        self._stack.pop()
        depth = len(self._stack)
        # a gap belongs to the loop at its depth; deeper loops have ended
        self._gaps = {d: g for d, g in self._gaps.items() if d <= depth}
        if depth in self._gaps:
            since, excluded = self._gaps[depth]
            self._gaps[depth] = (since, excluded + now - span[1])
        if span[0] == STEP_END or (
                span[0] == FORWARD and self.kinds.get(span[4]) == "eval"):
            self._gaps[depth] = (now, 0.0)
            self.rid = None
            self.step = None

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _cut(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            full = name
            if name == "model.self_attention_block":
                full += _attention_suffix(args, kwargs)
            with self.span(full + ".fwd"):
                out = fn(*args, **kwargs)
            if self.step is None or not out.requires_grad:
                return out
            leaf = TN.Tensor(out.data, requires_grad=True)
            self.step.segments.append((full, out, leaf))
            return leaf
        return wrapper

    def _forward_batch(self, fn):
        def wrapper(x, cfg, params):
            if self.suspended:
                return fn(x, cfg, params)
            rid = self._next_rid
            self._next_rid += 1
            training = TN.grad_enabled()
            self.kinds[rid] = "train" if training else "eval"
            self.rid = rid
            self.step = Step(rid, x, cfg, params) if training else None
            with self.span(FORWARD):
                out = fn(x, cfg, params)
            if training:
                self.step.logits = out
            return out
        return wrapper

    def _loss(self, fn):
        def wrapper(logits, targets):
            out = fn(logits, targets)
            if not self.suspended and self.step is not None \
                    and logits is self.step.logits:
                self.step.targets, self.step.loss = targets, out
            return out
        return wrapper

    def _backward(self, fn):
        def wrapper(tensor):
            step = self.step
            if self.suspended or step is None or tensor is not step.loss:
                return fn(tensor)
            engine = 0.0
            with self.span("train.backward"):
                with self.span(LOSS_BWD):
                    t = time.perf_counter()
                    fn(tensor)
                    engine += time.perf_counter() - t
                for name, out, leaf in reversed(step.segments):
                    if leaf.grad is None:
                        continue
                    with self.span(name + ".bwd"):
                        seed = (out * leaf.grad).sum()
                        t = time.perf_counter()
                        fn(seed)
                        engine += time.perf_counter() - t
            self.engine_s[step.rid] = engine
            step.segments.clear()        # frees the segmented graph
            with self.span("trace.grad_check"):
                self._check_monolithic(step, fn)
        return wrapper

    def _check_monolithic(self, step: Step, backward):
        """Rebuild the step as one graph; logits and grads must match exactly."""
        t = time.perf_counter()
        segmented = {k: p.grad for k, p in step.params.items()}
        for p in step.params.values():
            p.grad = None
        self.suspended = True
        try:
            logits = M.forward_batch(step.x, step.cfg, step.params)
            loss = T.bce_with_logits(logits, step.targets)
            nodes = walk_graph(loss)
            data_bytes = sum(n.data.nbytes for n in nodes if n.data.base is None)
            backward(loss)
            grad_bytes = sum(n.grad.nbytes for n in nodes if n.grad is not None)
        finally:
            self.suspended = False
        same = np.array_equal(logits.data, step.logits.data) and all(
            (g is None and p.grad is None)
            or (g is not None and p.grad is not None and np.array_equal(g, p.grad))
            for g, p in zip(segmented.values(), step.params.values()))
        self.grad_checks.append(bool(same))
        self.graph.append((len(nodes), data_bytes, grad_bytes))
        del nodes, logits, loss
        self.check_s += time.perf_counter() - t

    def _count_shard_reads(self, fn):
        def wrapper(file, mode="r", *args, **kwargs):
            if "r" in mode and str(file).endswith(".bin"):
                self.shard_bytes += os.path.getsize(file)
            return fn(file, mode, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        patches = [(mod, attr, self._cut(name, getattr(mod, attr)))
                   for name, mod, attr in CUT_LAYERS]
        patches += [(mod, attr, self._spanned(name, getattr(mod, attr)))
                    for name, mod, attr in SPAN_CALLS]
        patches += [
            (M, "forward_batch", self._forward_batch(M.forward_batch)),
            (T, "bce_with_logits", self._loss(T.bce_with_logits)),
            (TN.Tensor, "backward", self._backward(TN.Tensor.backward)),
            (io, "open", self._count_shard_reads(io.open)),
            (builtins, "open", self._count_shard_reads(builtins.open)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)
            self.step = None
            self.rid = None

    # -- reduction --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms)."""
        rows: dict[str, list] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = rows.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (s[2] - s[1]) * 1e3
            row[2] += own * 1e3
        return {k: tuple(v) for k, v in sorted(rows.items())}

    def format_summary(self) -> str:
        lines = [f"{'span':<44}{'calls':>7}{'total_ms':>12}{'self_ms':>12}"]
        for name, (calls, total, own) in self.summary().items():
            lines.append(f"{name:<44}{calls:>7}{total:>12.1f}{own:>12.1f}")
        return "\n".join(lines)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[0], "start_ms": (s[1] - self.t0) * 1e3,
                    "end_ms": (s[2] - self.t0) * 1e3, "parent": s[3],
                    "rid": s[4]}) + "\n")


LAYERS = ("sincnet.bank_kernels", "functional.conv1d_strided",
          "model.frontend_features", "functional.rnn_forward",
          "model.self_attention_block.freq", "model.self_attention_block.temp",
          "model.cross_fuse", "functional.dense")
PER_CALL_MS = ("train.save_checkpoint", "train.load_checkpoint",
               "train.predict_scores", "metrics.compute_report",
               "metrics.write_curves_csv")
DATAGEN = ("build_dataset", "save_dataset", "load_dataset", "verify_shards")


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tr: Tracer, primary: str) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run: name -> (value, unit).

    Forward figures are self ms per forward pass of kind `primary` ("train"
    steps or no-grad "eval" batches); backward and optimizer figures are per
    training step.  A layer's backward segment also holds the untraced glue
    between it and the previous boundary.
    """
    own = tr.self_times()
    fwd: dict[str, float] = {}
    bwd: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    opt_s = 0.0
    for s, self_s in zip(tr.spans, own):
        name, kind = s[0], tr.kinds.get(s[4])
        calls.setdefault(name, []).append(s[2] - s[1])
        if name.endswith(".fwd") and kind == primary:
            fwd[name[:-4]] = fwd.get(name[:-4], 0.0) + self_s
        elif name.endswith(".bwd") and kind == "train":
            bwd[name[:-4]] = bwd.get(name[:-4], 0.0) + self_s
        elif name.startswith("optim.AdamW.") and kind == "train":
            opt_s += s[2] - s[1]
    n_fwd = max(1, sum(1 for s in tr.spans
                       if s[0] == FORWARD and tr.kinds.get(s[4]) == primary))
    n_steps = max(1, sum(1 for k in tr.kinds.values() if k == "train"))
    forward_total = sum(s[2] - s[1] for s in tr.spans
                        if s[0] == FORWARD and tr.kinds.get(s[4]) == primary)
    graph = np.array(tr.graph, dtype=np.float64).reshape(-1, 3)

    m = {"tensor.graph_nodes": (_mean(graph[:, 0]), "count"),
         "tensor.graph_data_bytes": (_mean(graph[:, 1]), "bytes"),
         "tensor.grad_bytes": (_mean(graph[:, 2]), "bytes"),
         "tensor.backward_ms": (_mean(tr.engine_s.values()) * 1e3, "ms")}
    for layer in LAYERS:
        m[f"{layer}.fwd_ms"] = (fwd.get(layer, 0.0) / n_fwd * 1e3, "ms")
        m[f"{layer}.bwd_ms"] = (bwd.get(layer, 0.0) / n_steps * 1e3, "ms")
    m["optim.AdamW.step_ms"] = (_mean(calls.get(STEP_END, ())) * 1e3, "ms")
    m["train.forward_ms"] = (forward_total / n_fwd * 1e3, "ms")
    m["train.backward_ms"] = (_mean(calls.get("train.backward", ())) * 1e3, "ms")
    m["train.optimizer_ms"] = (opt_s / n_steps * 1e3, "ms")
    m["train.data_wait_ms"] = (
        _mean(w for k, w in tr.waits if k == primary) * 1e3, "ms")
    for name in PER_CALL_MS:
        m[f"{name}_ms"] = (_mean(calls.get(name, ())) * 1e3, "ms")
    for fn in DATAGEN:
        m[f"datagen.{fn}_s"] = (_mean(calls.get(f"datagen.{fn}", ())), "s")
    loads = max(1, len(calls.get("datagen.load_dataset", ())))
    m["datagen.shard_bytes_read"] = (tr.shard_bytes / loads, "bytes")
    return m
