"""Mini-batch training and evaluation engine with checkpointing and ablations."""

from __future__ import annotations

import hashlib
import math
import struct
import time
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


# Rows per forward pass, training or not, and the one bound on the rows the
# layers see: the convolution and attention kernels run whatever batch they
# are handed in one go, so this bounds their segment copies and [B, h, T, T]
# softmax buffers.  A training step runs its batch as consecutive
# microbatches of at most this many rows, so the live graph is that of 32
# rows whatever the batch size; a batch of 32 rows or fewer is one
# microbatch and takes the one-graph step unchanged.  Fewer rows would split
# the B=32 batches of small-config runs and slow them; at 64 rows a default
# step's graph again outgrows the rest of a training run's memory.
STEP_ROWS = 32


def predict_scores(x: np.ndarray, cfg: M.ModelConfig,
                   params: dict) -> np.ndarray:
    """Sigmoid scores [N, n_labels] for a stack of waveforms, without a graph,
    over batches of STEP_ROWS waveforms."""
    out = []
    with no_grad():
        for i in range(0, x.shape[0], STEP_ROWS):
            logits = M.forward_batch(x[i:i + STEP_ROWS], cfg, params)
            out.append(sigmoid(logits.data))
    return np.concatenate(out, axis=0)


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


def train_step(waves: list, y: np.ndarray, ids: np.ndarray, cfg: M.ModelConfig,
               params: dict, opt: AdamW, epoch: int = 0) -> float:
    """One optimizer step over a batch; returns the batch's mean loss.

    `waves` holds the batch's waveforms, `y` their float targets and `ids`
    the names the non-finite-loss error gives them.  Each microbatch of b of
    the B rows runs forward and backward on its own graph, and b/B times its
    leaf gradients is summed outside the graph, so the step sees the
    gradient and loss of one graph over all B rows.
    """
    n = len(waves)
    total, acc = 0.0, None
    for i in range(0, n, STEP_ROWS):
        rows = slice(i, i + STEP_ROWS)
        x = np.stack(waves[rows])
        loss = bce_with_logits(M.forward_batch(x, cfg, params), y[rows])
        if not np.isfinite(loss.data):
            raise NumericError(f"non-finite loss at epoch {epoch}, "
                               f"batch ids {ids[rows].tolist()}")
        opt.zero_grad()
        loss.backward()
        w = len(x) / n
        total += w * float(loss.data)
        grads = [w * p.grad for p in opt.params]
        acc = grads if acc is None else [a + g for a, g in zip(acc, grads)]
    for p, g in zip(opt.params, acc):
        p.grad = g
    opt.step()
    return total


def train(dataset: Dataset, model_cfg: M.ModelConfig, train_cfg: TrainConfig,
          out_dir=None) -> tuple[dict, RunRecord]:
    """Seeded mini-batch loop; retains the best-validation parameters."""
    train_cfg.validate()
    cfg = model_cfg.validate()

    # a training step stacks each microbatch from `dataset.waves` as it runs it
    train_recs = dataset.split_records("train")
    y_train = np.stack([r.labels for r in train_recs])
    params = M.init_params(cfg, train_cfg.seed)
    opt = AdamW(params.values(), lr=train_cfg.lr,
                weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng([train_cfg.seed, 0x7E])
    record = RunRecord()
    best_exact = -1.0
    t0 = time.time()

    for epoch in range(train_cfg.max_epochs):
        losses = []
        for idx in _batches(len(train_recs), train_cfg.batch_size, rng):
            waves = [dataset.waves[train_recs[i].sample_id] for i in idx]
            losses.append(train_step(waves, y_train[idx].astype(np.float64),
                                     idx, cfg, params, opt, epoch))
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
