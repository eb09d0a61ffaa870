"""The three workloads, their set-up, their timed loop and their output checks.

Each workload is one closed loop with a single client: the next call into
hymad starts only when the previous one has returned.  Inputs come from
`datagen.build_dataset` with the run's seed, written to disk and read back,
so the program only ever sees generated, stored inputs.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hymad import datagen as D
from hymad import model as M
from hymad import train as T
from hymad.optim import AdamW
from hymad.tensor import Tensor

from tracing import Tracer, layer_metrics

SETUPS = 15           # set-ups per run; setup_s is their median
REFERENCE_SEED = 0    # the seed whose outputs are compared with reference.json
RTOL, ATOL = 1e-6, 1e-9

SMALL_MODEL = dict(n_filters=8, kernel_len=65, pool_stride=200, rnn_hidden=16,
                   d_model=16, n_heads=1, mlp_hidden=(32,))
TINY_MODEL = dict(n_filters=4, kernel_len=33, pool_stride=400, rnn_hidden=8,
                  d_model=8, mlp_hidden=(16,))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "train" | "ablate" | "eval"
    dataset: dict                  # DatasetConfig fields except the seed
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    def tiny(self) -> "Workload":
        """The same path at smoke-test sizes."""
        return replace(self, name=self.name + "-tiny",
                       dataset=dict(n_per_class=8, ratios=(0.6, 0.2, 0.2)),
                       model=TINY_MODEL,
                       train={**self.train, "batch_size": 16, "max_epochs": 2})


WORKLOADS = {w.name: w for w in (
    # The headline configuration: default ModelConfig, B=128.  Attention
    # backward dominates the step; engine and memory work show here first.
    # A train split holds 7 samples per source waveform (4 singles, 3 pair
    # mixtures), so 128 per class is the smallest split of full batches:
    # 896 samples, seven steps of 128.  The 490 val waveforms give the
    # epoch's val evaluate enough work to time.
    Workload("train_b128", "train",
             dataset=dict(n_per_class=200, ratios=(0.64, 0.35, 0.01)),
             train=dict(batch_size=128, max_epochs=1)),
    # hymad evaluate --ablate on the small config: per-node engine overhead
    # and the strided conv dominate; the only workload running the concat,
    # freq_only and plain-frontend paths.
    Workload("ablate_small", "ablate",
             dataset=dict(n_per_class=20, ratios=(0.6, 0.2, 0.2)),
             model=SMALL_MODEL,
             train=dict(lr=3e-3, batch_size=32, max_epochs=4)),
    # hymad evaluate: no graph, no backward, no optimizer.  Forward-side and
    # reader changes move it; engine and backward changes must not.
    Workload("eval_test", "eval",
             dataset=dict(n_per_class=46, ratios=(0.1, 0.1, 0.8))),
)}


class Ops:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def done(self, n: int = 1):
        self.attempted += n

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


class PredictTimer:
    """Times each `train.predict_scores` call and keeps the scores it returns."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.waveforms, self.seconds, self.scores = 0, 0.0, []

    @contextmanager
    def installed(self):
        inner = T.predict_scores

        def timed(x, *args, **kwargs):
            t = time.perf_counter()
            scores = inner(x, *args, **kwargs)
            self.seconds += time.perf_counter() - t
            self.waveforms += x.shape[0]
            self.scores.append(scores)
            return scores

        T.predict_scores = timed
        try:
            yield self
        finally:
            T.predict_scores = inner


def _valid_scores(scores) -> bool:
    return all(np.all(np.isfinite(s)) and np.all((s >= 0.0) & (s <= 1.0))
               for s in scores)


def _report_ok(r) -> bool:
    vals = (r.strict_match, r.hamming, r.precision, r.recall, r.f1, r.auroc)
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals)


def _same_params(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].data.dtype == b[k].data.dtype and np.array_equal(a[k].data, b[k].data)
        for k in a)


class Run:
    """One workload run: set-up, timed loop, checks, metrics."""

    def __init__(self, wl: Workload, seed: int, work: Path, trace: bool):
        self.wl, self.seed, self.work = wl, seed, work
        self.cfg = M.ModelConfig(**wl.model)
        self.tcfg = T.TrainConfig(seed=seed, **wl.train)
        self.ops = Ops()
        self.tracer = Tracer() if trace else None
        self.timer = PredictTimer()
        self.first = None               # outputs of the first main call
        self.params = None
        self.setup_times: list[float] = []
        self.digests: list[str] = []

    def _traced(self):
        return self.tracer.installed() if self.tracer else nullcontext()

    # -- set-up -----------------------------------------------------------------

    def setup(self):
        """Generate, save, load and verify the dataset; init or load params.

        The run uses the dataset and parameters of its first set-up; later
        set-ups are timed and checked only.
        """
        i = len(self.setup_times)
        path = self.work / f"data{i}"
        with self._traced():
            t = time.perf_counter()
            built = D.build_dataset(D.DatasetConfig(seed=self.seed,
                                                    **self.wl.dataset))
            D.save_dataset(built, path)
            ds = D.load_dataset(path)
            verified = D.verify_shards(path)
            params = M.init_params(self.cfg, self.seed)
            if self.wl.kind == "eval":
                ckpt = self.work / f"model{i}.ckpt"
                T.save_checkpoint(ckpt, self.cfg, params)
                params = T.load_checkpoint(ckpt, self.cfg)
            self.setup_times.append(time.perf_counter() - t)
        self.ops.check(verified, f"verify_shards is false in set-up {i}")
        self.digests.append(D.manifest_digest(path))
        shutil.rmtree(path)
        if i == 0:
            self.ds, self.params = ds, params
            self.n_train = len(ds.split_records("train"))
            self.n_test = len(ds.split_records("test"))

    # -- the workload's main call -------------------------------------------------

    def main_call(self) -> tuple[int, dict]:
        """One call into hymad; returns (samples processed, outputs)."""
        kind, ops = self.wl.kind, self.ops
        if kind == "train":
            params, record = T.train(self.ds, self.cfg, self.tcfg,
                                     out_dir=self.work / "run")
            epochs = len(record.losses)
            ops.done(epochs * math.ceil(self.n_train / self.tcfg.batch_size))
            ops.check(all(math.isfinite(v) and v > 0 for v in record.losses),
                      "non-finite training loss")
            ops.check(all(_report_ok(r) for _, r in record.val_reports),
                      "validation metric outside [0, 1]")
            self.params = params
            return self.n_train * epochs, {
                "losses": record.losses,
                "val_strict_match": [r.strict_match for _, r in record.val_reports],
                "params": T.params_digest(params)}
        if kind == "ablate":
            results = T.run_ablations(self.ds, self.cfg, self.tcfg)
            epochs = self.tcfg.max_epochs
            ops.done(len(results) * (1 + epochs * math.ceil(
                self.n_train / self.tcfg.batch_size)))
            ops.check(all(_report_ok(r) for r in results.values()),
                      "ablation metric outside [0, 1]")
            return len(results) * self.n_train * epochs, {
                "f1": [results[v].f1 for v in T.ABLATION_VARIANTS],
                "reports": [vars(results[v]) for v in T.ABLATION_VARIANTS]}
        report = T.evaluate(self.ds, "test", self.params, self.cfg,
                            out_dir=self.work / "eval")
        ops.done()
        ops.check(_report_ok(report), "test metric outside [0, 1]")
        scores = self.timer.scores[-1]
        return self.n_test, {
            "scores_head": scores[:8].ravel().tolist(),
            "scores_mean": scores.mean(axis=0).tolist(),
            "f1": report.f1, "strict_match": report.strict_match,
            "scores": scores}

    def probe_step(self):
        """One training step of the evaluated model on a copy of its params.

        eval_test builds no graph, so its traced run takes its backward,
        optimizer and graph figures from this step.
        """
        x, y, _ = self.ds.arrays("test")
        params = {k: Tensor(v.data.copy(), requires_grad=True)
                  for k, v in self.params.items()}
        opt = AdamW(params.values())
        logits = M.forward_batch(x[:64], self.cfg, params)
        loss = T.bce_with_logits(logits, y[:64].astype(np.float64))
        opt.zero_grad()
        loss.backward()
        opt.step()
        self.ops.done()

    # -- the timed loop -----------------------------------------------------------

    def loop(self, seconds: float) -> list[tuple[bool, float, float]]:
        """Main calls for about `seconds` of call time, with set-ups between.

        Returns (traced, samples/s, eval waveforms/s) per call.  No call
        starts that would end past `seconds` by the last call's length,
        but at least two calls run.  Set-ups run between calls, spread over
        the run, so that `setup_s` samples the same stretch of time as the
        throughputs; the last ones run after the loop.  A traced run
        alternates untraced and traced calls, so both are measured on the
        same process; the time spent in gradient-equality checks is left
        out of a traced call's wall time.
        """
        calls = []
        elapsed = 0.0
        while True:
            traced = self.tracer is not None and len(calls) % 2 == 1
            check_s = self.tracer.check_s if traced else 0.0
            self.timer.reset()
            t = time.perf_counter()
            with self.tracer.installed() if traced else nullcontext():
                samples, out = self.main_call()
            last = time.perf_counter() - t
            elapsed += last
            wall = last - (self.tracer.check_s - check_s if traced else 0.0)
            self.ops.check(_valid_scores(self.timer.scores),
                           "score outside [0, 1] or non-finite")
            if self.first is None:
                self.first = out
            else:
                self.ops.check(_same_outputs(out, self.first),
                               "outputs differ between identical calls")
            calls.append((traced, samples / wall,
                          self.timer.waveforms / self.timer.seconds))
            share = min(1.0, elapsed / seconds)
            while len(self.setup_times) < 1 + (SETUPS - 1) * share:
                self.setup()
            if len(calls) >= 2 and elapsed + last > seconds:
                break
        while len(self.setup_times) < SETUPS:
            self.setup()
        return calls

    def finish(self):
        """Checkpoint round trip and a test evaluate that writes its files.

        The parameters are the last trained ones (train), the initial ones
        (ablate) or the loaded checkpoint (eval).
        """
        params, cfg = self.params, self.cfg
        with self._traced():
            path = self.work / "roundtrip.ckpt"
            T.save_checkpoint(path, cfg, params)
            loaded = T.load_checkpoint(path, cfg)
            self.ops.check(_same_params(params, loaded) and
                           T.params_digest(params) == T.params_digest(loaded),
                           "checkpoint round trip is not bit-identical")
            out = self.work / "final"
            T.evaluate(self.ds, "test", loaded, cfg, out_dir=out)
            self.ops.done()
        self.ops.check(all((out / f).stat().st_size > 0 for f in
                           ("report_test.txt", "roc_test.csv", "pr_test.csv")),
                       "evaluate did not write its report and curves")
        self.ops.check(len(set(self.digests)) == 1,
                       "manifest digest differs between regenerations")
        for ok in self.tracer.grad_checks if self.tracer else ():
            self.ops.check(ok, "segmented gradients differ from loss.backward()")

    # -- the whole run ------------------------------------------------------------

    def execute(self, seconds: float) -> dict[str, tuple[float, str]]:
        with self.timer.installed():
            self.setup()
            if self.tracer and self.wl.kind == "eval":
                with self.tracer.installed():
                    self.probe_step()
            calls = self.loop(seconds)
            self.finish()
        plain = [c for c in calls if not c[0]]
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "samples_per_s": (statistics.median(c[1] for c in plain), "1/s"),
            "eval_waveforms_per_s": (statistics.median(c[2] for c in plain), "1/s"),
        }
        if self.tracer is None:
            return metrics
        traced = statistics.median(c[1] for c in calls if c[0])
        m = layer_metrics(self.tracer, "eval" if self.wl.kind == "eval" else "train")
        m["trace.overhead_samples_per_s"] = (
            traced - metrics["samples_per_s"][0], "1/s")
        return m

    def reference_values(self) -> dict:
        return {k: v for k, v in self.first.items()
                if k not in ("params", "reports", "scores")}


def _same_outputs(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def compare_reference(observed: dict, expected: dict) -> list[str]:
    """Mismatches of observed against reference values, |o-e| <= ATOL+RTOL|e|."""
    problems = []
    for key in sorted(set(observed) | set(expected)):
        if key not in observed or key not in expected:
            problems.append(f"reference key {key!r} missing on one side")
            continue
        o = np.atleast_1d(np.asarray(observed[key], dtype=np.float64))
        e = np.atleast_1d(np.asarray(expected[key], dtype=np.float64))
        if o.shape != e.shape:
            problems.append(f"{key}: shape {o.shape} != reference {e.shape}")
        elif not np.all(np.abs(o - e) <= ATOL + RTOL * np.abs(e)):
            problems.append(f"{key}: {o.tolist()} != reference {e.tolist()}")
    return problems
