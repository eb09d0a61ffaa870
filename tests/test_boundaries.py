"""File-boundary probes: a truncated, corrupt or padded dataset or checkpoint
raises CompatibilityError, and the untouched files still load, bit for bit,
whatever the config or the parameter values.

The module fixtures hold file contents as bytes; each example writes its
files under `tempfile`, because hypothesis runs many examples inside one call
of a test function and rejects function-scoped fixtures such as `tmp_path`.
"""

import hashlib
import math
import os
import re
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hymad import datagen as D
from hymad import model as M
from hymad import train as T
from hymad.errors import CompatibilityError, LeakageError
from hymad.tensor import Tensor

probe = settings(max_examples=12)


SMALL = D.DatasetConfig(n_per_class=3, ratios=(0.34, 0.33, 0.33), seed=2)


@pytest.fixture(scope="module")
def files() -> dict[str, bytes]:
    """A small saved dataset (21 waveforms over three non-empty splits)."""
    ds = D.build_dataset(SMALL)
    with tempfile.TemporaryDirectory() as tmp:
        out = D.save_dataset(ds, tmp)
        return {p.name: p.read_bytes() for p in out.iterdir()}


def write_dataset(root: str, files: dict[str, bytes], **replaced: bytes) -> str:
    for name, blob in {**files, **replaced}.items():
        (Path(root) / name).write_bytes(blob)
    return root


def assert_dataset_rejected(files: dict[str, bytes], **replaced: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, files, **replaced)
        with pytest.raises(CompatibilityError):
            D.load_dataset(tmp)
        assert not D.verify_shards(tmp)


def test_untouched_dataset_loads(files):
    with tempfile.TemporaryDirectory() as tmp:
        ds = D.load_dataset(write_dataset(tmp, files))
        assert D.verify_shards(tmp)
        assert len(ds.records) == sum(map(len, ds.x.values())) == 21
        for split in D.SPLITS:
            x, _, _ = ds.arrays(split)
            assert x.shape[1] == D.SEGMENT_LEN


def test_loaded_waves_are_aligned_read_only_rows_of_one_array_per_split(files):
    built = D.build_dataset(SMALL)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = D.load_dataset(write_dataset(tmp, files))
    for split in D.SPLITS:
        rows = loaded.x[split]
        assert loaded.arrays(split)[0] is rows
        n = len(loaded.split_records(split))
        assert rows.shape == (n, D.SEGMENT_LEN) and rows.dtype == "<f8"
        assert rows.flags.c_contiguous and rows.flags.aligned
        assert rows.ctypes.data % 8 == 0 and not rows.flags.writeable
        assert rows.tobytes() == built.x[split].tobytes()


@contextmanager
def traced_peak():
    """Yields a list that, once the block ends, holds the most bytes
    tracemalloc saw allocated in the block beyond those allocated when it
    began; numpy's buffers are traced."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        peak = []
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        if started:
            tracemalloc.stop()


def test_shards_are_read_in_bounded_memory(tmp_path):
    out = D.save_dataset(D.build_dataset(D.DatasetConfig(n_per_class=10, seed=1)),
                         tmp_path)
    assert max((out / f"{s}.bin").stat().st_size for s in D.SPLITS) >= 3 * 2 ** 20
    record = D.SHARD_RECORD.itemsize
    with traced_peak() as peak:
        verified = D.verify_shards(out)
    assert verified and peak[0] < 2 * record
    with traced_peak() as peak:
        loaded = D.load_dataset(out)
    assert peak[0] <= sum(x.nbytes for x in loaded.x.values()) + record


@pytest.mark.parametrize("split", D.SPLITS)
def test_shard_grown_to_a_gibibyte_is_refused_before_it_is_read(files, split):
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, files)
        os.truncate(Path(tmp) / f"{split}.bin", 2 ** 30)     # sparse: no blocks
        with traced_peak() as peak, pytest.raises(CompatibilityError):
            D.load_dataset(tmp)
        assert peak[0] < 2 ** 20
        with traced_peak() as peak:
            verified = D.verify_shards(tmp)
        assert not verified and peak[0] < 2 ** 20


@pytest.mark.parametrize("line", ["none", "header", "record"])
def test_manifest_grown_to_a_gibibyte_is_refused_before_it_is_read(files,
                                                                     line):
    # zeros after the last record, or after the start of a header or a
    # record line, which they grow past any line's bound
    manifest = files["manifest"]
    keep = {"none": len(manifest),
            "header": manifest.index(b"\nseed = ") + 8,
            "record": manifest.index(b"\n[samples]\n") + 15}[line]
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, files, manifest=manifest[:keep])
        os.truncate(Path(tmp) / "manifest", 2 ** 30)     # sparse: no blocks
        with traced_peak() as peak, pytest.raises(CompatibilityError):
            D.load_dataset(tmp)
        assert peak[0] < 2 ** 20
        with traced_peak() as peak:
            verified = D.verify_shards(tmp)
        assert not verified and peak[0] < 2 ** 20


def test_checkpoint_grown_to_a_gibibyte_is_refused_before_it_is_read(
        checkpoint):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(checkpoint)
        os.truncate(path, 2 ** 30)                  # sparse: no blocks
        with traced_peak() as peak, pytest.raises(CompatibilityError,
                                                  match="trailing"):
            T.load_checkpoint(path, tiny_model())
        assert peak[0] < 2 ** 20


@pytest.mark.parametrize("keep", [0, 5, D.SHARD_RECORD.itemsize + 100])
def test_shard_that_shrinks_while_it_is_read_is_rejected(files, keep):
    # the size check sees the whole shard, as if the file were cut just after
    # it was opened; then a read comes back short
    whole = SimpleNamespace(st_size=len(files["val.bin"]))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        write_dataset(tmp, files, **{"val.bin": files["val.bin"][:keep]})
        mp.setattr(D.os, "fstat", lambda fd: whole)
        with pytest.raises(CompatibilityError, match="ended while it was read"):
            D.load_dataset(tmp)
        assert not D.verify_shards(tmp)


@probe
@given(st.sampled_from(D.SPLITS), st.data())
def test_any_flipped_shard_byte_is_rejected(files, split, data):
    blob = bytearray(files[f"{split}.bin"])
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    assert_dataset_rejected(files, **{f"{split}.bin": bytes(blob)})


@probe
@given(st.sampled_from(D.SPLITS), st.data())
def test_any_shard_truncation_is_rejected(files, split, data):
    blob = files[f"{split}.bin"]
    keep = data.draw(st.integers(0, len(blob) - 1), label="kept bytes")
    assert_dataset_rejected(files, **{f"{split}.bin": blob[:keep]})


@probe
@given(st.data())
def test_manifest_cut_at_any_line_is_rejected(files, data):
    lines = files["manifest"].decode().splitlines(keepends=True)
    keep = data.draw(st.integers(0, len(lines) - 1), label="kept lines")
    assert_dataset_rejected(files, manifest="".join(lines[:keep]).encode())


def test_malformed_manifest_lines_are_rejected(files):
    lines = files["manifest"].decode().splitlines(keepends=True)
    body = lines.index("[samples]\n")
    key = {line.split(" = ")[0]: i for i, line in enumerate(lines[:body])}
    for at, bad in ((0, "hymad-dataset v2\n"), (1, "seed: 2\n"),
                    (body - 1, "shard_test = 00\n"), (body + 1, "garbage\n"),
                    (body + 1, lines[body + 1].replace("\ttrain\t", "\tother\t")),
                    (body + 1, lines[body + 1].replace("\t1000\t", "\t10\t")),
                    # parsed, but not a config that `DatasetConfig.validate` passes
                    (key["n_per_class"], "n_per_class = -7\n"),
                    (key["ratios"], "ratios = 0.5\n"),
                    (key["ratios"], "ratios = nan,0.5,0.5\n"), (key["seed"], "seed = -1\n"),
                    (key["scale_lo"], "scale_lo = nan\n")):
        assert bad != lines[at]
        edited = lines[:at] + [bad] + lines[at + 1:]
        assert_dataset_rejected(files, manifest="".join(edited).encode())
    assert_dataset_rejected(files, manifest=b"\xff" + files["manifest"])


def record_lines(files) -> tuple[list[str], int]:
    """The manifest's lines and the index of its first record line."""
    lines = files["manifest"].decode().splitlines(keepends=True)
    return lines, lines.index("[samples]\n") + 1


@probe
@given(st.data())
def test_flipped_manifest_label_bit_is_rejected(files, data):
    lines, first = record_lines(files)
    at = data.draw(st.integers(first, len(lines) - 1), label="record line")
    fields = lines[at].split("\t")
    bit = data.draw(st.integers(0, len(fields[3]) - 1), label="label bit")
    fields[3] = (fields[3][:bit] + "10"[int(fields[3][bit])]
                 + fields[3][bit + 1:])
    edited = lines[:at] + ["\t".join(fields)] + lines[at + 1:]
    assert_dataset_rejected(files, manifest="".join(edited).encode())


@probe
@given(st.data())
def test_any_edited_manifest_record_field_is_rejected(files, data):
    lines, first = record_lines(files)
    at = data.draw(st.integers(first, len(lines) - 1), label="record line")
    fields = lines[at].rstrip("\n").split("\t")
    i = data.draw(st.integers(0, len(fields) - 1), label="field")
    new = data.draw(st.text("0123456789.,+abehilmnuv_", max_size=8)
                    .filter(lambda v: v != fields[i]), label="value")
    fields[i] = new
    edited = lines[:at] + ["\t".join(fields) + "\n"] + lines[at + 1:]
    assert_dataset_rejected(files, manifest="".join(edited).encode())


def redigest(files, lines: list[str], **shards: bytes) -> dict[str, bytes]:
    """The dataset files with the manifest `lines` and the given split shards,
    every digest in the manifest recomputed to match, so that only the checks
    on what the records say can reject them."""
    first = lines.index("[samples]\n") + 1
    digests = {"records": "".join(lines[first:]).encode(),
               **{f"shard_{s}": blob for s, blob in shards.items()}}
    head = [f"{key} = {hashlib.sha256(digests[key]).hexdigest()}\n"
            if (key := line.split(" = ")[0]) in digests else line
            for line in lines[:first]]
    return {**files, "manifest": "".join(head + lines[first:]).encode(),
            **{f"{s}.bin": blob for s, blob in shards.items()}}


def test_redigested_records_that_hold_are_accepted(files):
    lines, _ = record_lines(files)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, redigest(files, lines, test=files["test.bin"]))
        assert len(D.load_dataset(tmp).records) == 21


@pytest.mark.parametrize("combo, field, value, cause", [
    # a test mixture lists a train single, or an id that no record holds
    ("human+animal", 4, "{human.train},{animal.test}", LeakageError),
    ("human+animal", 4, "{human.test},99", LeakageError),
    # a single with two sources is no single, so the mixtures of its
    # split that list it no longer hold
    ("human", 4, "{human.test},{animal.test}", LeakageError),
    ("human", 1, "zebra", ValueError),
    ("human+animal", 1, "human+human", ValueError),
    ("human", 1, "animal", ValueError),       # a combo its bits contradict
    ("human+animal", 4, "{human.test}", ValueError),
    ("human+animal", 4, "{human.test},{vehicle.test}", ValueError),
], ids=["train-source", "dangling-source", "single-with-two-sources", "zebra",
        "human+human", "single-combo-not-its-bits", "pair-with-one-source",
        "pair-source-of-another-class"])
def test_records_that_break_the_split_rule_or_contradict_are_rejected(
        files, combo, field, value, cause):
    # each edit is to a test record and keeps its id and label bits, so the
    # shards still match and only the checks on the records can refuse it
    lines, first = record_lines(files)
    rows = [line.split("\t") for line in lines[first:]]
    singles = {c: SimpleNamespace(**{r[2]: r[0] for r in rows if r[1] == c})
               for c in D.CLASSES}
    at = next(i for i, r in enumerate(rows) if r[1:3] == [combo, "test"])
    rows[at][field] = value.format(**singles)
    lines[first + at] = "\t".join(rows[at])
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, redigest(files, lines))
        with pytest.raises(CompatibilityError) as exc:
            D.load_dataset(tmp)
        assert type(exc.value.__cause__) is cause, exc.value
        assert not D.verify_shards(tmp)


def test_label_bit_other_than_0_or_1_is_rejected(files):
    # "2000" has the shard label byte of "0100", so only the bits' check
    # stands between it and a scored label of 2
    lines, first = record_lines(files)
    at = next(i for i in range(first, len(lines)) if "\t0100\t" in lines[i])
    lines[at] = lines[at].replace("\t0100\t", "\t2000\t")
    assert_dataset_rejected(redigest(files, lines))


def test_split_without_records_is_rejected(files):
    lines, first = record_lines(files)
    kept = [line for line in lines[first:] if "\ttest\t" not in line]
    assert_dataset_rejected(redigest(files, lines[:first] + kept, test=b""))


def test_repeated_sample_id_is_rejected(files):
    # a test record takes a train record's sample_id, in the manifest and in
    # the test shard alike; loading would keep only one of the two waveforms
    lines, first = record_lines(files)
    train_id = next(line for line in lines[first:]
                    if "\ttrain\t" in line).split("\t")[0]
    at = next(i for i in range(first, len(lines)) if "\ttest\t" in lines[i])
    lines[at] = train_id + lines[at][lines[at].index("\t"):]
    shard = np.frombuffer(files["test.bin"], D.SHARD_RECORD).copy()
    shard["sample_id"][0] = int(train_id)
    assert_dataset_rejected(redigest(files, lines, test=shard.tobytes()))


def test_manifest_cut_inside_its_last_line_is_rejected(files):
    for cut in (1, 2):
        assert_dataset_rejected(files, manifest=files["manifest"][:-cut])


def record_fields(ds) -> list[dict]:
    return [{**vars(r), "labels": r.labels.tolist()} for r in ds.records]


@settings(max_examples=6)
@given(st.integers(3, 5), st.data())
def test_dataset_round_trip_over_configs(n, data):
    # whole source counts per split, so no split is empty
    n_val = data.draw(st.integers(1, n - 2), label="val sources")
    n_test = data.draw(st.integers(1, n - 1 - n_val), label="test sources")
    lo = data.draw(st.floats(0.1, 2.0), label="scale_lo")
    cfg = D.DatasetConfig(
        n_per_class=n, ratios=((n - n_val - n_test) / n, n_val / n, n_test / n),
        seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
        delay_max=data.draw(st.integers(0, D.SEGMENT_LEN // 2), label="delay_max"),
        scale_lo=lo, scale_hi=lo * data.draw(st.floats(1.0, 4.0), label="spread"))
    ds = D.build_dataset(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        D.save_dataset(ds, tmp)
        loaded = D.load_dataset(tmp)
        assert D.verify_shards(tmp)
    assert loaded.config == cfg
    assert record_fields(loaded) == record_fields(ds)
    assert loaded.x.keys() == ds.x.keys()
    for split, x in ds.x.items():
        assert loaded.x[split].tobytes() == x.tobytes()


# -- checkpoints ----------------------------------------------------------------

def tiny_model():
    return M.ModelConfig(n_filters=4, kernel_len=17, pool_stride=32, rnn_hidden=8,
                         d_model=8, mlp_hidden=(16,), input_len=512)


@pytest.fixture(scope="module")
def checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        T.save_checkpoint(path, tiny_model(), M.init_params(tiny_model(), seed=0))
        return path.read_bytes()


def checkpoint_fields(checkpoint: bytes) -> list[tuple[int, int]]:
    """(start, end) of every field of the checkpoint, from its documented layout:
    magic, version, config digest, parameter count, then per parameter (sorted
    by name) the name length, name, ndim, shape and float64 data."""
    widths = [4, 4, 32, 4]
    params = M.init_params(tiny_model(), seed=0)
    for name in sorted(params):
        shape = params[name].data.shape
        widths += [2, len(name.encode()), 1, 4 * len(shape), 8 * math.prod(shape)]
    ends = [sum(widths[:i + 1]) for i in range(len(widths))]
    assert ends[-1] == len(checkpoint)
    return [(end - w, end) for w, end in zip(widths, ends)]


def load_checkpoint_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(blob)
        return T.load_checkpoint(path, tiny_model())


def test_untouched_checkpoint_loads(checkpoint):
    loaded = load_checkpoint_bytes(checkpoint)
    want = M.init_params(tiny_model(), seed=0)
    assert T.params_digest(loaded) == T.params_digest(want)


def test_checkpoint_cut_at_every_structural_offset_is_rejected(checkpoint):
    cuts = {c for start, end in checkpoint_fields(checkpoint)
            for c in (start, (start + end) // 2, end - 1) if start <= c}
    for cut in sorted(cuts):
        with pytest.raises(CompatibilityError):
            load_checkpoint_bytes(checkpoint[:cut])


def test_version_1_checkpoint_is_rejected_by_its_version(checkpoint):
    assert checkpoint[4:8] == T.CHECKPOINT_VERSION.to_bytes(4, "little") \
        == (2).to_bytes(4, "little")
    with pytest.raises(CompatibilityError,
                       match="unsupported checkpoint version 1$"):
        load_checkpoint_bytes(checkpoint[:4] + (1).to_bytes(4, "little")
                              + checkpoint[8:])


@probe
@given(st.binary(min_size=1, max_size=64))
def test_checkpoint_trailing_bytes_are_rejected(checkpoint, extra):
    with pytest.raises(CompatibilityError, match="trailing"):
        load_checkpoint_bytes(checkpoint + extra)


# float64 bit patterns mixed into the draws: quiet and signalling NaNs with
# payloads and either sign, +-inf, +-0.0, the smallest and largest subnormals
# and the largest finite value
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001,
                0x7FF0000000000000, 0xFFF0000000000000, 0x0, 0x8000000000000000,
                0x1, 0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF]


@probe
@given(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS),
                          st.integers(0, 2 ** 64 - 1)), min_size=1, max_size=32),
       st.integers(0, 2 ** 32 - 1))
def test_checkpoint_round_trip_keeps_any_bit_pattern(bits, seed):
    rng = np.random.default_rng(seed)
    pool = np.array(bits, dtype=np.uint64)
    params = {name: Tensor(rng.choice(pool, t.shape).view(np.float64))
              for name, t in M.init_params(tiny_model(), seed=0).items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        T.save_checkpoint(path, tiny_model(), params)
        loaded = T.load_checkpoint(path, tiny_model())
    assert loaded.keys() == params.keys()
    for name, t in params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_checkpoint_of_other_values_loads(checkpoint):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        other = M.init_params(tiny_model(), seed=1)
        T.save_checkpoint(path, tiny_model(), other)
        assert T.params_digest(T.load_checkpoint(path, tiny_model())) \
            == T.params_digest(other)


def test_checkpoint_format_is_pinned_by_its_bytes(tmp_path):
    # parameters filled from one running count, not drawn, so the file's
    # bytes depend on the version-2 layout alone
    params, at = {}, 0
    for name, t in sorted(M.init_params(tiny_model()).items()):
        values = np.arange(at, at + t.data.size) / 7 - 3
        params[name], at = Tensor(values.reshape(t.shape)), at + t.data.size
    T.save_checkpoint(tmp_path / "m.ckpt", tiny_model(), params)
    assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == \
        "63486226cfa08fc6b3690860a03a50b629c3c8c34bb402740a206d0138edf074"
    loaded = T.load_checkpoint(tmp_path / "m.ckpt", tiny_model())
    assert T.params_digest(loaded) == T.params_digest(params)


def test_checkpoint_is_read_in_bounded_memory(tmp_path):
    # each record's data is read straight into its parameter's array: no
    # copy of the whole file and no second copy of any parameter is held
    cfg = M.ModelConfig()
    params = M.init_params(cfg, seed=3)
    T.save_checkpoint(tmp_path / "m.ckpt", cfg, params)
    with traced_peak() as peak:
        loaded = T.load_checkpoint(tmp_path / "m.ckpt", cfg)
    assert T.params_digest(loaded) == T.params_digest(params)
    assert peak[0] < 1.5 * sum(t.data.nbytes for t in params.values())


@pytest.mark.parametrize("field", [4, 5, 8, -1])
def test_checkpoint_that_shrinks_while_it_is_read_is_rejected(checkpoint, field):
    # the size check sees the whole file, as if it were cut just after it
    # was opened; then a read inside the first record's name length, name
    # or data, or inside the last record's data, comes back short
    start, end = checkpoint_fields(checkpoint)[field]
    whole = SimpleNamespace(st_size=len(checkpoint))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(checkpoint[:(start + end) // 2])
        with pytest.MonkeyPatch.context() as mp, pytest.raises(
                CompatibilityError, match="where the model puts it"):
            mp.setattr(T.os, "fstat", lambda fd: whole)
            T.load_checkpoint(path, tiny_model())


def test_any_flipped_name_ndim_or_shape_byte_is_rejected(checkpoint):
    # past the file header, each parameter has five fields: name length,
    # name, ndim, shape and data; every byte of the first four is flipped
    fields = checkpoint_fields(checkpoint)[4:]
    offsets = [at for i, (start, end) in enumerate(fields) if i % 5 in (0, 1, 2, 3)
               for at in range(start, end)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        for at in offsets:
            for mask in (0x01, 0x80):
                blob = bytearray(checkpoint)
                blob[at] ^= mask
                path.write_bytes(bytes(blob))
                with pytest.raises(CompatibilityError):
                    T.load_checkpoint(path, tiny_model())


def test_unknown_missing_repeated_or_reshaped_parameter_is_rejected(checkpoint):
    params = M.init_params(tiny_model(), seed=0)
    first = checkpoint_fields(checkpoint)[4:9]        # the first parameter's record
    record = checkpoint[first[0][0]:first[-1][1]]
    n = len(params)
    assert checkpoint[40:44] == n.to_bytes(4, "little")
    repeated = checkpoint[:40] + (n + 1).to_bytes(4, "little") + record + checkpoint[44:]
    # the second record, of the same shape and name length, replaced by a copy
    # of the first: count n and the exact size, so only the record check sees it
    second = checkpoint_fields(checkpoint)[9:14]
    assert second[-1][1] - second[0][0] == len(record)
    in_place = checkpoint[:second[0][0]] + record + checkpoint[second[-1][1]:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(repeated)
        with pytest.raises(CompatibilityError, match="repeats"):
            T.load_checkpoint(path, tiny_model())
        path.write_bytes(in_place)
        second_name = sorted(params)[1]
        with pytest.raises(CompatibilityError, match=re.escape(
                f"parameter {second_name!r} {params[second_name].shape} "
                "where the model puts it")):
            T.load_checkpoint(path, tiny_model())
        name = sorted(params)[0]
        for edited in ({**params, "extra.w": params[name]},
                       {k: v for k, v in params.items() if k != name},
                       {**params, name: Tensor(np.zeros(params[name].shape + (1,)))}):
            T.save_checkpoint(path, tiny_model(), edited)
            with pytest.raises(CompatibilityError):
                T.load_checkpoint(path, tiny_model())
