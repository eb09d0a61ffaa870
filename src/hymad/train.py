"""Mini-batch training and evaluation engine with checkpointing and ablations."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hymad.errors import CompatibilityError, ConfigError, NumericError
from hymad import model as M
from hymad.datagen import Dataset, decide
from hymad.functional import bce_with_logits, sigmoid
from hymad.metrics import MetricsReport, compute_report, write_curves_csv
from hymad.optim import AdamW
from hymad.tensor import Tensor, no_grad

CHECKPOINT_MAGIC = b"HYMD"
CHECKPOINT_VERSION = 2


@dataclass
class TrainConfig:
    lr: float = 1e-2
    batch_size: int = 128
    max_epochs: int = 200
    seed: int = 0
    weight_decay: float = 0.01
    early_stop_exact: float = math.inf  # stop once val exact-match reaches this

    def validate(self):
        for name in ("lr", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"train.{name} must be finite and >= 0, "
                                  f"got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"train.max_epochs must be >= 1, got {self.max_epochs}")
        return self


@dataclass
class RunRecord:
    losses: list = field(default_factory=list)           # per-epoch mean loss
    val_reports: list = field(default_factory=list)      # (epoch, MetricsReport)
    digests: list = field(default_factory=list)          # per-epoch param digest
    wall_time: float = 0.0
    best_epoch: int = -1


def params_digest(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.astype("<f8").tobytes())
    return h.hexdigest()


def save_checkpoint(path, cfg: M.ModelConfig, params: dict[str, Tensor]):
    digest = bytes.fromhex(cfg.digest())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(digest)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            data = params[name].data
            enc = name.encode()
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.astype("<f8").tobytes())


def load_checkpoint(path, cfg: M.ModelConfig) -> dict[str, Tensor]:
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CompatibilityError(f"{path} is not a checkpoint file")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CompatibilityError(f"{path} is truncated")
        off += n
        return blob[off - n:off]

    version, = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CompatibilityError(f"unsupported checkpoint version {version}")
    if take(32).hex() != cfg.digest():
        raise CompatibilityError(
            "checkpoint config digest does not match the supplied model config")
    want = {name: t.shape for name, t in M.init_params(cfg).items()}
    count, = struct.unpack("<I", take(4))
    params = {}
    for _ in range(count):
        nlen, = struct.unpack("<H", take(2))
        name = take(nlen).decode(errors="replace")
        ndim, = take(1)
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if name in params or want.get(name) != shape:
            raise CompatibilityError(
                f"{path}: parameter {name!r} {shape} is not in the model or repeats")
        data = np.frombuffer(take(8 * math.prod(shape)), "<f8").reshape(shape)
        params[name] = Tensor(data.copy(), requires_grad=True)
    if off != len(blob):
        raise CompatibilityError(f"{path} has {len(blob) - off} trailing bytes")
    if len(params) != len(want):
        raise CompatibilityError(
            f"{path} lacks parameters {sorted(want.keys() - params.keys())}")
    return params


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield perm[i:i + batch_size]


# Rows per chunk of a forward pass, training or not, and the one bound on
# the rows the layers see: the convolution and attention kernels run
# whatever batch they are handed in one go, so this bounds their segment
# copies and [B, h, T, T] softmax buffers.  A call of more than CHUNK_ROWS
# rows runs its chunks on the step pool, so at most CHUNK_ROWS *
# STEP_WORKERS rows are alive; one of CHUNK_ROWS or fewer runs in the
# calling thread at full BLAS.  Run as one 32-row graph at 2 BLAS threads,
# a B=32 step spin-waits the second thread on small GEMMs: the pooled
# chunks cut `ablate_small`'s CPU from 62 to 44 s per 30 s run and its
# peak RSS from 79 to 71 MB (BENCH_20.json).
CHUNK_ROWS = 16
# Threads the chunks of a call of more than CHUNK_ROWS rows run on.  The
# forward and backward are mostly single-threaded numpy work, so a second
# worker uses the core it leaves idle.  With 1, or with fewer cores than
# workers, or without control of OpenBLAS's threads, the same chunks run
# one after another in the calling thread.
STEP_WORKERS = 2
_pool = None          # made by the first pooled block
_pooled = threading.Lock()           # held across each pooled block
_ENGINE_BACKWARD = Tensor.backward   # unwrapped, for _in_order
M_ARENA_MAX = -8      # glibc's mallopt parameter


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy bundles no OpenBLAS that exports such a pair."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get, put = (f"{prefix}_{op}_num_threads{suffix}"
                        for op in ("get", "set"))
            if hasattr(handle, get) and hasattr(handle, put):
                get, put = getattr(handle, get), getattr(handle, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _in_order(fn, jobs: list):
    """An iterator over fn(*job) for each job, in order.

    More than one job runs on the step pool, unless STEP_WORKERS is 1, the
    cores are fewer than the workers or OpenBLAS's threads cannot be set.
    One pooled block runs at a time, and pooled blocks do not nest (a job
    must not start one): the block holds `_pooled` while it makes the pool
    on first use, shares OpenBLAS's thread count out among the workers, at
    least one thread each, and restores it, so a count the caller limited
    stays limited and two threads' blocks leave it as they found it.  Each
    result is dropped once taken, so only those not yet taken are alive.
    The first failing job in order raises, once no worker is running.
    While `Tensor.backward` is wrapped from outside the package, as
    perfbench's per-layer tracer wraps it to follow one graph at a time,
    the jobs run in turn in the calling thread at the workers' BLAS share,
    which gives the pooled results bit for bit; so do one job, or jobs
    without a pool.

    Making the pool caps glibc's malloc at its main arena for the whole
    process: per-thread arenas would keep the workers' freed activations
    mapped and raise the process's peak memory, and the later evaluation
    would fault its pages in again.
    """
    global _pool
    in_turn = (fn(*job) for job in jobs)
    if len(jobs) < 2 or STEP_WORKERS < 2 or _cores() < STEP_WORKERS \
            or _openblas() is None:
        yield in_turn
        return
    # imported here, so that a process whose steps never pool does not load
    # the module
    from concurrent.futures import ThreadPoolExecutor, wait
    with _pooled:
        if _pool is None:
            libc = ctypes.CDLL(None)
            if hasattr(libc, "mallopt"):
                libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
                libc.mallopt.restype = ctypes.c_int
                libc.mallopt(M_ARENA_MAX, 1)
            _pool = ThreadPoolExecutor(STEP_WORKERS,
                                       thread_name_prefix="hymad-step")
        get, put = _openblas()
        before = get()
        put(max(1, before // STEP_WORKERS))
        try:
            if Tensor.backward is not _ENGINE_BACKWARD:
                yield in_turn
                return
            futures = [_pool.submit(fn, *job) for job in jobs]

            def taken():
                while futures:
                    yield futures.pop(0).result()

            try:
                yield taken()
            finally:
                for f in futures:
                    f.cancel()
                wait(futures)
        finally:
            put(before)


def _chunk_scores(x: np.ndarray, start: int, cfg: M.ModelConfig,
                  params: dict) -> np.ndarray:
    """One chunk's scores; grad mode is per thread, so it sets its own."""
    try:
        with no_grad():
            return sigmoid(M.forward_batch(x, cfg, params).data)
    except NumericError as exc:
        raise NumericError(
            f"{exc} at rows {start}-{start + len(x) - 1}") from exc


def predict_scores(x: np.ndarray, cfg: M.ModelConfig,
                   params: dict) -> np.ndarray:
    """Sigmoid scores [N, n_labels] for a stack of waveforms, without a graph.

    The waveforms run in chunks of CHUNK_ROWS, as a training step's
    microbatches do; a numeric error names its chunk's rows."""
    jobs = [(x[i:i + CHUNK_ROWS], i, cfg, params)
            for i in range(0, x.shape[0], CHUNK_ROWS)]
    with _in_order(_chunk_scores, jobs) as scores:
        return np.concatenate(list(scores), axis=0)


def _threshold(cfg: M.ModelConfig, threshold: float | None) -> float:
    """The decision threshold, `cfg.threshold` unless one is given; only
    (0, 1) is accepted, as for `ModelConfig.threshold`."""
    thr = cfg.threshold if threshold is None else threshold
    if not 0.0 < thr < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {thr!r}")
    return thr


def evaluate(dataset: Dataset, split: str, params: dict, cfg: M.ModelConfig,
             threshold: float | None = None, out_dir=None) -> MetricsReport:
    thr = _threshold(cfg, threshold)
    x, y, _ = dataset.arrays(split)
    scores = predict_scores(x, cfg, params)
    report = compute_report(decide(scores, thr), y, scores)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"report_{split}.txt").write_text(report.format(
            f"split = {split}\nthreshold = {thr!r}"))
        write_curves_csv(out / f"roc_{split}.csv", scores, y, "roc")
        write_curves_csv(out / f"pr_{split}.csv", scores, y, "pr")
    return report


def _microbatch(x: np.ndarray, y: np.ndarray, ids: np.ndarray,
                cfg: M.ModelConfig, params: dict, epoch: int):
    """Forward, loss and backward of the rows `ids` of `x` and `y`, gathered
    here, on fresh leaves over the parameter arrays (views, not copies);
    returns the loss and name -> leaf gradient.  It may run on a pool thread,
    which does not inherit the caller's numpy error state, so it sets its
    own: an overflow, invalid or divide-by-zero raises `NumericError`."""
    where = f"at epoch {epoch}, batch ids {ids.tolist()}"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            leaves = {k: Tensor(p.data, requires_grad=True)
                      for k, p in params.items()}
            loss = bce_with_logits(M.forward_batch(x[ids], cfg, leaves), y[ids])
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite loss {where}")
            loss.backward()
    except FloatingPointError as exc:
        raise NumericError(f"{exc} {where}") from exc
    return float(loss.data), {k: t.grad for k, t in leaves.items()}


def train_step(x: np.ndarray, y: np.ndarray, ids: np.ndarray, cfg: M.ModelConfig,
               params: dict, opt: AdamW, epoch: int = 0) -> float:
    """One optimizer step over the rows `ids` of the waveforms `x` and float
    targets `y`; returns the batch's mean loss.

    Each microbatch of b of the B rows gathers its rows, which a numeric
    error names, and runs forward and backward on its own graph; b/B times
    its leaf gradients is summed outside the graph in microbatch order, so
    the step sees the gradient and loss of one graph over all B rows.  The
    microbatches have CHUNK_ROWS rows and run on the step pool when there
    is one (`_in_order`), so at most CHUNK_ROWS * STEP_WORKERS are gathered.
    """
    n, rows = len(ids), CHUNK_ROWS
    jobs = [(x, y, ids[i:i + rows], cfg, params, epoch)
            for i in range(0, n, rows)]
    total, acc = 0.0, None
    with _in_order(_microbatch, jobs) as results:
        for job, (loss, grads) in zip(jobs, results):
            w = len(job[2]) / n
            total += w * loss
            grads = {k: w * g for k, g in grads.items()}
            acc = grads if acc is None else {k: acc[k] + g
                                             for k, g in grads.items()}
    for k, g in acc.items():
        params[k].grad = g
    opt.step()
    return total


def train(dataset: Dataset, model_cfg: M.ModelConfig, train_cfg: TrainConfig,
          out_dir=None) -> tuple[dict, RunRecord]:
    """Seeded mini-batch loop; retains the best-validation parameters."""
    train_cfg.validate()
    cfg = model_cfg.validate()

    # each microbatch of a step gathers its rows of the stored split
    x, y, _ = dataset.arrays("train")
    y = y.astype(np.float64)
    params = M.init_params(cfg, train_cfg.seed)
    opt = AdamW(params.values(), lr=train_cfg.lr,
                weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng([train_cfg.seed, 0x7E])
    record = RunRecord()
    best_exact = -1.0
    t0 = time.time()

    for epoch in range(train_cfg.max_epochs):
        losses = []
        for idx in _batches(len(x), train_cfg.batch_size, rng):
            losses.append(train_step(x, y, idx, cfg, params, opt, epoch))
        record.losses.append(float(np.mean(losses)))
        record.digests.append(params_digest(params))

        report = evaluate(dataset, "val", params, cfg)
        record.val_reports.append((epoch, report))
        if report.strict_match > best_exact:
            best_exact = report.strict_match
            best = {k: v.data.copy() for k, v in params.items()}
            record.best_epoch = epoch
            if out_dir is not None:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                save_checkpoint(Path(out_dir) / "best.ckpt", cfg, params)
        if report.strict_match >= train_cfg.early_stop_exact:
            break

    record.wall_time = time.time() - t0
    # the steps' freed activations stay resident in glibc's heap; hand them
    # back, or the next large allocation, such as a split's array, which
    # glibc maps afresh, adds to them: perfbench's train_b128 peak RSS read
    # 362-389 MB without this and 315 MB with it (2 vCPUs)
    libc = ctypes.CDLL(None)
    if hasattr(libc, "malloc_trim"):
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        libc.malloc_trim(0)
    final = {k: Tensor(v, requires_grad=True) for k, v in best.items()}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out / "final.ckpt", cfg, final)
        lines = [f"lr = {train_cfg.lr!r}", f"best_epoch = {record.best_epoch}",
                 f"wall_time = {record.wall_time:.1f}", "[epochs]"]
        for e, (loss, dig) in enumerate(zip(record.losses, record.digests)):
            lines.append(f"{e}\t{loss!r}\t{dig}")
        (out / "run_record.txt").write_text("\n".join(lines) + "\n")
    return final, record


# variant -> ModelConfig overrides; `single_scale` replaces the caller's
# frontend with a one-branch free-weight convolution
ABLATIONS = {
    "freq_only": dict(fusion_mode="freq_only"),
    "single_scale": dict(fusion_mode="cross_attention", branches=1,
                         frontend="plain"),
    "concat": dict(fusion_mode="concat"),
    "full": dict(fusion_mode="cross_attention"),
}
ABLATION_VARIANTS = tuple(ABLATIONS)


def run_ablations(dataset: Dataset, base_cfg: M.ModelConfig,
                  train_cfg: TrainConfig) -> dict[str, MetricsReport]:
    """Train the four fusion variants on the same data and seed."""
    results = {}
    for variant, overrides in ABLATIONS.items():
        cfg = replace(base_cfg, **overrides)
        params, _ = train(dataset, cfg, train_cfg)
        results[variant] = evaluate(dataset, "test", params, cfg)
    return results


def format_ablation_table(results: dict[str, MetricsReport]) -> str:
    rows = [f"{'variant':<14}{'f1':>10}{'precision':>12}{'recall':>10}{'auroc':>10}"]
    for name in ABLATION_VARIANTS:
        r = results[name]
        rows.append(f"{name:<14}{r.f1:>10.4f}{r.precision:>12.4f}"
                    f"{r.recall:>10.4f}{r.auroc:>10.4f}")
    return "\n".join(rows) + "\n"
