"""Mini-batch training and evaluation engine with checkpointing and ablations."""

from __future__ import annotations

import hashlib
import math
import os
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hymad.errors import CompatibilityError, ConfigError, NumericError
from hymad import compute, model as M
from hymad.datagen import Dataset, decide
from hymad.functional import bce_with_logits, sigmoid
from hymad.metrics import MetricsReport, compute_report, write_curves_csv
from hymad.optim import AdamW
from hymad.tensor import Tensor, no_grad

CHECKPOINT_MAGIC = b"HYMD"
CHECKPOINT_VERSION = 2
_HEAD = struct.Struct("<4sI32sI")  # magic, version, config digest, count


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


def _head(cfg: M.ModelConfig, count: int) -> bytes:
    return _HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                      bytes.fromhex(cfg.digest()), count)


def _layout(params: dict[str, Tensor]) -> list[tuple[str, bytes, tuple]]:
    """Per parameter, sorted by name: its name, its record head (name length,
    name, ndim, shape) and its shape; the record's `<f8` data follows."""
    named = {n: (n.encode(), params[n].shape) for n in sorted(params)}
    return [(n, struct.pack(f"<H{len(e)}sB{len(s)}I", len(e), e, len(s), *s), s)
            for n, (e, s) in named.items()]


def save_checkpoint(path, cfg: M.ModelConfig, params: dict[str, Tensor]):
    with open(path, "wb") as fh:
        fh.write(_head(cfg, len(params)))
        for name, head, _ in _layout(params):
            fh.write(head)
            fh.write(params[name].data.astype("<f8").tobytes())


def load_checkpoint(path, cfg: M.ModelConfig) -> dict[str, Tensor]:
    """Check the file against the model's own layout: head, size, then each
    record head byte for byte, its data read straight into a fresh array."""
    layout = _layout(M.init_params(cfg))
    size = _HEAD.size + sum(len(h) + 8 * math.prod(s) for _, h, s in layout)
    with open(path, "rb") as fh:
        got = fh.read(_HEAD.size)
        if not got.startswith(CHECKPOINT_MAGIC):
            raise CompatibilityError(f"{path} is not a checkpoint file")
        if len(got) < _HEAD.size:
            raise CompatibilityError(f"{path} is truncated")
        _, version, digest, count = _HEAD.unpack(got)
        if version != CHECKPOINT_VERSION:
            raise CompatibilityError(f"unsupported checkpoint version {version}")
        if digest.hex() != cfg.digest():
            raise CompatibilityError(
                "checkpoint config digest does not match the supplied model config")
        if count != len(layout):
            raise CompatibilityError(f"{path} lists {count} parameters, the model "
                                     f"{len(layout)}: one is missing, unknown or repeats")
        have = os.fstat(fh.fileno()).st_size
        if have != size:
            raise CompatibilityError(f"{path} has {have - size} trailing bytes"
                                     if have > size else f"{path} is truncated")
        params = {}
        for name, head, shape in layout:
            data = np.empty(shape, "<f8")
            if fh.read(len(head)) != head or fh.readinto(data) != data.nbytes:
                raise CompatibilityError(f"{path} does not hold parameter "
                                         f"{name!r} {shape} where the model puts it")
            params[name] = Tensor(data, requires_grad=True)
    return params


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield perm[i:i + batch_size]


def _chunk_scores(rows: range, x: np.ndarray, cfg: M.ModelConfig,
                  params: dict) -> np.ndarray:
    """The scores of the rows `rows` of `x`.  Grad mode and the numpy error
    state are per thread, so it sets its own, as `_microbatch` does."""
    try:
        with no_grad(), np.errstate(over="raise", invalid="raise", divide="raise"):
            logits = M.forward_batch(x[rows.start:rows.stop], cfg, params).data
            if not np.isfinite(logits).all():
                raise NumericError("non-finite logits")
    except (FloatingPointError, NumericError) as exc:
        raise NumericError(f"{exc} at rows {rows.start}-{rows.stop - 1}") from exc
    return sigmoid(logits)


def predict_scores(x: np.ndarray, cfg: M.ModelConfig,
                   params: dict) -> np.ndarray:
    """Sigmoid scores [N, n_labels] for a stack of waveforms, without a graph.

    The waveforms run in chunks (`compute.in_order`), as a training step's
    microbatches do; a numeric error names its chunk's rows."""
    with compute.in_order(_chunk_scores, range(len(x)), x, cfg,
                          params) as results:
        return np.concatenate([scores for _, scores in results], axis=0)


def evaluate(dataset: Dataset, split: str, params: dict, cfg: M.ModelConfig,
             threshold: float | None = None, out_dir=None) -> MetricsReport:
    thr = cfg.threshold if threshold is None else \
        replace(cfg, threshold=threshold).validate().threshold
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


def _microbatch(ids: np.ndarray, x: np.ndarray, y: np.ndarray,
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
    microbatches are the chunks of `compute.in_order`, which bounds the
    rows gathered at once.
    """
    n, total, acc = len(ids), 0.0, None
    with compute.in_order(_microbatch, ids, x, y, cfg, params,
                          epoch) as results:
        for chunk, (loss, grads) in results:
            w = len(chunk) / n
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
    # hand back the heap pages the steps freed, or the next large allocation,
    # such as a split's array, adds to them: perfbench's train_b128 peak RSS
    # read 362-389 MB without this and 315 MB with it (2 vCPUs)
    compute.trim_heap()
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
