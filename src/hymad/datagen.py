"""Synthetic geophone-like dataset with the split-before-superposition protocol.

Single-activity waveforms are generated parametrically (there are no field
recordings), partitioned into train/val/test, and only then mixed into
multi-activity segments by randomly delayed, randomly scaled superposition.
Every sample carries its sources and seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hymad.errors import CompatibilityError, ConfigError, LeakageError

SEGMENT_LEN = 8000
FS = 8000.0
CLASSES = ("human", "animal", "vehicle", "no_event")
PAIR_CLASSES = (("human", "animal"), ("human", "vehicle"), ("vehicle", "animal"))
SPLITS = ("train", "val", "test")
LABEL_INDEX = {c: i for i, c in enumerate(CLASSES)}
MANIFEST_VERSION = 1
# the lines of a manifest's header and the most bytes a manifest line may hold
HEADER_LINES = 10
MANIFEST_LINE_MAX = 4096


def label_vector(active: list[str]) -> np.ndarray:
    """Multi-hot [human, animal, vehicle, no_event]; no_event iff nothing else."""
    bits = np.zeros(4, dtype=np.int64)
    for c in active:
        if c not in LABEL_INDEX:
            raise ConfigError(f"unknown class {c!r}")
        if c != "no_event":
            bits[LABEL_INDEX[c]] = 1
    if bits[:3].sum() == 0:
        bits[3] = 1
    return bits


def decide(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Multi-hot prediction: label j iff score_j > threshold (strict); a row
    where nothing fires gets the no_event bit instead of an empty set."""
    pred = (np.asarray(scores) > threshold).astype(np.int64)
    pred[pred.sum(axis=-1) == 0, LABEL_INDEX["no_event"]] = 1
    return pred


@dataclass
class Waveform:
    samples: np.ndarray
    labels: np.ndarray
    source_ids: list[int]
    split: str
    seed: int
    sample_id: int = -1

    def __post_init__(self):
        if self.samples.shape != (SEGMENT_LEN,):
            raise ConfigError(
                f"waveform must have {SEGMENT_LEN} samples, got {self.samples.shape}")


def normalize(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance; degenerate (near-constant) input maps to zeros."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean()
    sd = x.std()
    if sd < 1e-12:
        return np.zeros_like(x)
    out = x - mu
    out /= sd
    return out


# -- parametric event models --------------------------------------------------
# They work in place where they can: `build_dataset` generates each wave while
# its splits' arrays are already allocated, so their temporaries set its peak.

def _impulse_train(rng, rate_lo, rate_hi, decay, freq_lo, freq_hi,
                   amp_lo, amp_hi, jitter_s):
    """Damped sine bursts at a jittered rate, plus 0.05 white noise."""
    t = np.arange(SEGMENT_LEN) / FS
    x = np.zeros(SEGMENT_LEN)
    rate = rng.uniform(rate_lo, rate_hi)
    start = rng.uniform(0.0, 1.0 / rate)
    times = start + np.arange(0, int(rate) + 2) / rate
    times = times + rng.uniform(-jitter_s, jitter_s, times.shape)
    for t0 in times:
        if t0 < 0 or t0 >= 1.0:
            continue
        amp = rng.uniform(amp_lo, amp_hi)
        f = rng.uniform(freq_lo, freq_hi)
        _add_burst(x, t[t >= t0] - t0, amp, f, decay)
    x += 0.05 * rng.standard_normal(SEGMENT_LEN)
    return x


def _add_burst(x, tail, amp, f, decay):
    """x[-len(tail):] += amp * exp(-tail / decay) * sin(2 pi f tail), in place."""
    burst = tail / -decay
    np.exp(burst, out=burst)
    burst *= amp
    tail *= 2.0 * np.pi * f
    burst *= np.sin(tail, out=tail)
    x[SEGMENT_LEN - tail.size:] += burst


def _band_noise(rng, f_lo, f_hi):
    spec = np.fft.rfft(rng.standard_normal(SEGMENT_LEN))
    freqs = np.fft.rfftfreq(SEGMENT_LEN, 1.0 / FS)
    spec[(freqs < f_lo) | (freqs > f_hi)] = 0.0
    return np.fft.irfft(spec, SEGMENT_LEN)


def gen_event(cls: str, rng: np.random.Generator) -> np.ndarray:
    """One raw (un-normalized) single-activity segment."""
    if cls == "human":
        # periodic heavy footfalls: 1.5-2.5 Hz damped impulses, ~40 ms decay
        return _impulse_train(rng, 1.5, 2.5, 0.040, 20.0, 50.0, 0.8, 1.2, 0.005)
    if cls == "animal":
        # lighter, irregular impulse train at 3-6 Hz with jittered timing
        return _impulse_train(rng, 3.0, 6.0, 0.020, 40.0, 90.0, 0.3, 0.8, 0.030)
    if cls == "vehicle":
        # continuous 5-80 Hz rumble under slow amplitude modulation
        fm = rng.uniform(0.3, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        x = _band_noise(rng, 5.0, 80.0)
        # a float time axis: dividing integers would add a casting buffer
        x *= 1.0 + 0.5 * np.sin(
            2.0 * np.pi * fm * (np.arange(SEGMENT_LEN, dtype=float) / FS) + phase)
        x += 0.02 * rng.standard_normal(SEGMENT_LEN)
        return x
    if cls == "no_event":
        return rng.standard_normal(SEGMENT_LEN)
    raise ConfigError(f"unknown class {cls!r}")


def gen_single(cls: str, root_seed: int, index: int, split: str = "train") -> Waveform:
    """Reproducible normalized single-activity waveform."""
    rng = np.random.default_rng([root_seed, LABEL_INDEX[cls], index])
    return Waveform(normalize(gen_event(cls, rng)), label_vector([cls]),
                    source_ids=[], split=split, seed=root_seed)


def superpose(primary: Waveform, secondary: Waveform, delay: int,
              a: float, b: float) -> Waveform:
    """a*primary + b*shift(secondary, delay), then normalized; labels union.

    Refuses to mix across splits (leakage guard) or past float64 range.
    """
    if primary.split != secondary.split:
        raise LeakageError(
            f"cannot mix splits {primary.split!r} and {secondary.split!r}")
    if not (0 <= delay <= SEGMENT_LEN // 2):
        raise ConfigError(f"delay must lie in [0, {SEGMENT_LEN // 2}], got {delay}")
    if a <= 0 or b <= 0:
        raise ConfigError("scales a, b must be positive")
    shifted = np.zeros(SEGMENT_LEN)
    shifted[delay:] = secondary.samples[:SEGMENT_LEN - delay]
    try:
        with np.errstate(over="raise", invalid="raise"):
            # b * shifted + a * primary, in place in `shifted` (see the
            # event models)
            shifted *= b
            shifted += a * primary.samples
            mixed = normalize(shifted)
    except FloatingPointError as exc:
        raise ConfigError(f"scales {a!r}, {b!r} overflow the float64 mixture; "
                          "lower dataset.scale_hi") from exc
    active = [CLASSES[i] for i in range(3)
              if primary.labels[i] or secondary.labels[i]]
    return Waveform(mixed, label_vector(active),
                    source_ids=sorted(set(primary.source_ids) | set(secondary.source_ids)),
                    split=primary.split, seed=primary.seed)


def split_ids(ids_by_class: dict[str, list[int]], ratios=(0.8, 0.1, 0.1),
              seed: int = 0) -> dict[str, set[int]]:
    """Per-class stratified shuffle split into disjoint train/val/test ID sets."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"dataset.ratios must sum to 1, got {list(ratios)}")
    rng = np.random.default_rng([seed, 0xD1])
    out = {s: set() for s in SPLITS}
    for cls in sorted(ids_by_class):
        ids = list(ids_by_class[cls])
        rng.shuffle(ids)
        n = len(ids)
        n_val = int(round(ratios[1] * n))
        n_test = int(round(ratios[2] * n))
        n_train = n - n_val - n_test
        out["train"].update(ids[:n_train])
        out["val"].update(ids[n_train:n_train + n_val])
        out["test"].update(ids[n_train + n_val:])
    return out


@dataclass
class SampleRecord:
    sample_id: int
    combo: str                 # e.g. "human" or "human+vehicle"
    split: str
    labels: np.ndarray
    source_ids: list[int]
    delay: int = 0
    scale_a: float = 1.0
    scale_b: float = 1.0
    seed: int = 0


@dataclass
class DatasetConfig:
    n_per_class: int = 400
    ratios: tuple = (0.8, 0.1, 0.1)
    seed: int = 0
    delay_max: int = 4000
    scale_lo: float = 0.5
    scale_hi: float = 2.0

    def validate(self):
        if self.n_per_class < 1:
            raise ConfigError(
                f"dataset.n_per_class must be >= 1, got {self.n_per_class}")
        if self.seed < 0:
            raise ConfigError(f"dataset.seed must be >= 0, got {self.seed}")
        if len(self.ratios) != 3 or not all(0.0 < r < 1.0 for r in self.ratios) \
                or abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError("dataset.ratios must be three values in (0, 1) that "
                              f"sum to 1, got {list(self.ratios)}")
        if not (0.0 < self.scale_lo <= self.scale_hi < math.inf):
            raise ConfigError("dataset.scale_lo/scale_hi must be finite and "
                              "satisfy 0 < lo <= hi")
        if not (0 <= self.delay_max <= SEGMENT_LEN // 2):
            raise ConfigError(
                f"dataset.delay_max must lie in [0, {SEGMENT_LEN // 2}]")
        return self


@dataclass
class Dataset:
    config: DatasetConfig
    records: list[SampleRecord]
    # split -> its waves as one [n, SEGMENT_LEN] float64 array, whose row i
    # is split_records(split)[i]
    x: dict[str, np.ndarray] = field(repr=False)

    def split_records(self, split: str) -> list[SampleRecord]:
        return [r for r in self.records if r.split == split]

    def arrays(self, split: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The split's stored waves themselves, not a copy, with their
        labels and sample ids."""
        recs = self.split_records(split)
        return (self.x[split], np.array([r.labels for r in recs]),
                [r.sample_id for r in recs])


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Split the singles' ids, then generate each single and each
    within-split pair mixture straight into its row of its split's array."""
    cfg.validate()
    n = cfg.n_per_class
    ids_by_class = {c: list(range(k * n, (k + 1) * n))
                    for k, c in enumerate(CLASSES)}
    parts = split_ids(ids_by_class, cfg.ratios, cfg.seed)
    for split, idset in parts.items():
        if not idset:
            raise ConfigError(
                f"split {split!r} is empty; increase n_per_class "
                "or adjust ratios")

    # every class splits the same way, so a split of s sources holds s/4 of
    # each class and s/4 mixtures of each of the three pairs: 7s/4 rows
    x = {s: np.empty((7 * len(parts[s]) // 4, SEGMENT_LEN)) for s in SPLITS}
    rows = {s: iter(x[s]) for s in SPLITS}
    records: list[SampleRecord] = []

    def keep(w: Waveform, record: SampleRecord) -> Waveform:
        """Moves w's samples to the next row of its split; keeps the record."""
        row = next(rows[w.split])
        row[:] = w.samples
        w.samples = row
        records.append(record)
        return w

    singles = {}
    for sid in range(len(CLASSES) * n):
        cls = CLASSES[sid // n]
        split = next(s for s in SPLITS if sid in parts[s])
        w = gen_single(cls, cfg.seed, sid % n, split)
        w.source_ids = [sid]
        singles[sid] = keep(w, SampleRecord(sid, cls, split, w.labels, [sid],
                                            seed=cfg.seed))

    next_id = len(singles)
    for pair_idx, (c1, c2) in enumerate(PAIR_CLASSES):
        combo = f"{c1}+{c2}"
        for split in SPLITS:
            pool1 = [i for i in ids_by_class[c1] if i in parts[split]]
            pool2 = [i for i in ids_by_class[c2] if i in parts[split]]
            for j in range(len(pool1)):
                rng = np.random.default_rng([cfg.seed, 0xA0 + pair_idx,
                                             SPLITS.index(split), j])
                p = singles[int(rng.choice(pool1))]
                s = singles[int(rng.choice(pool2))]
                delay = int(rng.integers(0, cfg.delay_max + 1))
                # log-uniform scales keep both sources substantially present
                a, b = np.exp(rng.uniform(np.log(cfg.scale_lo),
                                          np.log(cfg.scale_hi), 2))
                mixed = superpose(p, s, delay, float(a), float(b))
                keep(mixed, SampleRecord(next_id, combo, split, mixed.labels,
                                         mixed.source_ids, delay, float(a),
                                         float(b), cfg.seed))
                next_id += 1

    return Dataset(cfg, records, x)


# -- on-disk layout: manifest (text) + one binary shard per split -------------

def _record_line(r: SampleRecord) -> str:
    bits = "".join(str(int(b)) for b in r.labels)
    srcs = ",".join(str(s) for s in r.source_ids)
    return (f"{r.sample_id}\t{r.combo}\t{r.split}\t{bits}\t{srcs}\t"
            f"{r.delay}\t{r.scale_a!r}\t{r.scale_b!r}\t{r.seed}")


def _parse_record(line: str) -> SampleRecord:
    sid, combo, split, bits, srcs, delay, a, b, seed = line.split("\t")
    if split not in SPLITS or len(bits) != len(CLASSES) or set(bits) - {"0", "1"}:
        raise ValueError(f"bad split or label bits in record {line!r}")
    labels = np.array([int(c) for c in bits], dtype=np.int64)
    sources = [int(s) for s in srcs.split(",")] if srcs else []
    return SampleRecord(int(sid), combo, split, labels, sources,
                        int(delay), float(a), float(b), int(seed))


def _label_byte(labels: np.ndarray) -> int:
    return sum(int(labels[i]) << i for i in range(4))


# a shard record is its 9-byte header, then its wave's SEGMENT_LEN "<f8" samples
SHARD_HEAD = np.dtype([("label", "u1"), ("sample_id", "<u8")])
SHARD_RECORD = np.dtype(SHARD_HEAD.descr + [("wave", "<f8", (SEGMENT_LEN,))])


def save_dataset(ds: Dataset, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shard_digests = {}
    for split in SPLITS:
        digest = hashlib.sha256()
        with open(out / f"{split}.bin", "wb") as fh:
            for r, wave in zip(ds.split_records(split), ds.x[split],
                               strict=True):
                head = np.array((_label_byte(r.labels), r.sample_id), SHARD_HEAD)
                wave = np.ascontiguousarray(wave, "<f8")
                for part in (head, wave.reshape(SEGMENT_LEN)):
                    fh.write(part)
                    digest.update(part)
        shard_digests[split] = digest.hexdigest()

    cfg = ds.config
    body = "".join(_record_line(r) + "\n" for r in ds.records)
    lines = [f"hymad-dataset v{MANIFEST_VERSION}",
             f"seed = {cfg.seed}",
             f"n_per_class = {cfg.n_per_class}",
             f"ratios = {cfg.ratios[0]!r},{cfg.ratios[1]!r},{cfg.ratios[2]!r}",
             f"delay_max = {cfg.delay_max}",
             f"scale_lo = {cfg.scale_lo!r}",
             f"scale_hi = {cfg.scale_hi!r}",
             f"records = {hashlib.sha256(body.encode()).hexdigest()}"]
    lines += [f"shard_{s} = {shard_digests[s]}" for s in SPLITS]
    (out / "manifest").write_text("\n".join(lines) + "\n[samples]\n" + body)
    return out


def _read_manifest(path: Path) -> tuple[DatasetConfig, list[SampleRecord], dict]:
    """The one manifest parser: config, records and shard digests.  It reads
    no line past MANIFEST_LINE_MAX bytes, the header's HEADER_LINES lines and
    at most the 7 * n_per_class record lines its config allows (4n singles
    and n mixtures of each pair), so a longer file is refused unread."""
    file = path / "manifest"
    try:
        with open(file, "rb") as fh:
            def line() -> bytes:
                got = fh.readline(MANIFEST_LINE_MAX + 1)
                if len(got) > MANIFEST_LINE_MAX:
                    raise ValueError(f"a line is over {MANIFEST_LINE_MAX} bytes")
                return got

            lines = iter(line, b"")
            if next(lines, b"") != f"hymad-dataset v{MANIFEST_VERSION}\n".encode():
                raise ValueError(f"no 'hymad-dataset v{MANIFEST_VERSION}' header")
            header = dict(h.decode().rstrip("\n").split(" = ", 1)
                          for h in itertools.islice(lines, HEADER_LINES))
            if next(lines, b"") != b"[samples]\n":
                raise ValueError("no [samples] line after the header")
            ratios = tuple(float(v) for v in header["ratios"].split(","))
            cfg = DatasetConfig(int(header["n_per_class"]), ratios,
                                int(header["seed"]), int(header["delay_max"]),
                                float(header["scale_lo"]),
                                float(header["scale_hi"])).validate()
            body = list(itertools.islice(lines, 7 * cfg.n_per_class))
            if fh.read(1):
                raise ValueError("more records than n_per_class makes")
        # the records' digest also catches a cut last line or final newline
        if hashlib.sha256(b"".join(body)).hexdigest() != header["records"]:
            raise ValueError("the records do not match their digest")
        records = [_parse_record(r.decode().rstrip("\n")) for r in body]
        if len({r.sample_id for r in records}) != len(records):
            raise ValueError("a sample_id repeats")
        empty = set(SPLITS) - {r.split for r in records}
        if empty:
            raise ValueError(f"no records in split(s) {sorted(empty)}")
        digests = {s: header[f"shard_{s}"] for s in SPLITS}
    except (ValueError, KeyError) as exc:    # a ConfigError is a ValueError
        raise CompatibilityError(f"malformed manifest {file}: {exc}") from exc
    return cfg, records, digests


def _read_shard(path: Path, split: str, digest: str,
                records: list[SampleRecord], keep: bool = True) -> np.ndarray:
    """Stream one split's shard and check it against the manifest: its size
    before any byte is read, the digest of every byte in file order, and the
    sample ids and label bytes in manifest order.

    Returns the waves as one read-only [n, SEGMENT_LEN] array; with `keep`
    false every wave passes through one reused row, so one record is held.
    """
    file = path / f"{split}.bin"
    held = [r for r in records if r.split == split]
    heads = np.empty(len(held), SHARD_HEAD)
    sha = hashlib.sha256()
    with open(file, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != len(held) * SHARD_RECORD.itemsize:
            raise CompatibilityError(f"{file} is not the {len(held)} "
                                     f"{split} records of its manifest")
        waves = np.empty((len(held) if keep else 1, SEGMENT_LEN), "<f8")
        for i, head in enumerate(heads.view(np.uint8).reshape(len(held), -1)):
            for part in (head, waves[i if keep else 0].view(np.uint8)):
                if fh.readinto(part) != part.size:
                    raise CompatibilityError(f"{file} ended while it was read")
                sha.update(part)
    if sha.hexdigest() != digest:
        raise CompatibilityError(f"{file} does not match its manifest digest")
    if heads["sample_id"].tolist() != [r.sample_id for r in held] \
            or heads["label"].tolist() != [_label_byte(r.labels) for r in held]:
        raise CompatibilityError(f"{file} does not hold the manifest's "
                                 f"{split} samples and labels in order")
    waves.flags.writeable = False
    return waves


def load_dataset(path: str | Path) -> Dataset:
    """Read a saved dataset; any malformed file raises CompatibilityError.
    Each split's shard is read straight into one [n, SEGMENT_LEN] float64
    array, so each waveform is a read-only, C-contiguous, aligned row."""
    path = Path(path)
    cfg, records, digests = _read_manifest(path)
    return Dataset(cfg, records, {s: _read_shard(path, s, digests[s], records)
                                  for s in SPLITS})


def manifest_digest(path: str | Path) -> str:
    return hashlib.sha256((Path(path) / "manifest").read_bytes()).hexdigest()


def verify_shards(path: str | Path) -> bool:
    """Whether `load_dataset` would accept the shards of the dataset at `path`.
    It makes the same checks in the same reader, but holds one record at a
    time: every wave is read into one reused row."""
    path = Path(path)
    try:
        _, records, digests = _read_manifest(path)
        for split in SPLITS:
            _read_shard(path, split, digests[split], records, keep=False)
    except CompatibilityError:
        return False
    return True
