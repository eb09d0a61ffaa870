import numpy as np
import pytest

from hymad.errors import ConfigError, LeakageError
from hymad import datagen as D


def small_cfg(seed=0, n=20):
    return D.DatasetConfig(n_per_class=n, seed=seed)


# -- event generation ---------------------------------------------------------

def test_same_seed_bit_identical():
    a = D.gen_single("human", 42, 3)
    b = D.gen_single("human", 42, 3)
    assert a.samples.tobytes() == b.samples.tobytes()


def test_different_index_differs():
    a = D.gen_single("human", 42, 3)
    b = D.gen_single("human", 42, 4)
    assert a.samples.tobytes() != b.samples.tobytes()


def test_unknown_class_rejected():
    with pytest.raises(ConfigError):
        D.gen_event("ghost", np.random.default_rng(0))


def test_vehicle_energy_concentrated_below_100hz():
    for i in range(5):
        w = D.gen_single("vehicle", 7, i)
        spec = np.abs(np.fft.rfft(w.samples)) ** 2
        freqs = np.fft.rfftfreq(D.SEGMENT_LEN, 1.0 / D.FS)
        low = spec[freqs < 100.0].sum()
        assert low / spec.sum() >= 0.70


def test_no_event_spectral_flatness():
    # Welch-averaged periodogram; raw single-window flatness of white noise
    # sits near 0.56, averaging brings it toward 1.
    for i in range(5):
        w = D.gen_single("no_event", 7, i)
        segs = w.samples.reshape(16, 500)
        psd = np.mean(np.abs(np.fft.rfft(segs, axis=1)) ** 2, axis=0)[1:]
        flatness = np.exp(np.mean(np.log(psd))) / np.mean(psd)
        assert flatness >= 0.8


def test_label_vector_rules():
    np.testing.assert_array_equal(D.label_vector(["human"]), [1, 0, 0, 0])
    np.testing.assert_array_equal(D.label_vector(["human", "vehicle"]), [1, 0, 1, 0])
    np.testing.assert_array_equal(D.label_vector(["no_event"]), [0, 0, 0, 1])
    np.testing.assert_array_equal(D.label_vector([]), [0, 0, 0, 1])


# -- decide -------------------------------------------------------------------

def test_decide_thresholding():
    got = D.decide(np.array([0.88, 0.12, 0.52, 0.48]), 0.5)
    np.testing.assert_array_equal(got, [1, 0, 1, 0])


def test_decide_all_negative_is_no_event():
    got = D.decide(np.array([[0.01, 0.01, 0.01, 0.01]]), 0.5)
    np.testing.assert_array_equal(got, [[0, 0, 0, 1]])


def test_decide_boundary_is_strict():
    got = D.decide(np.array([0.5, 0.5, 0.5, 0.5]), 0.5)
    np.testing.assert_array_equal(got, [0, 0, 0, 1])


# -- normalize ----------------------------------------------------------------

def test_normalize_zero_mean_unit_std():
    x = np.random.default_rng(0).standard_normal(1000) * 7 + 3
    z = D.normalize(x)
    assert abs(z.mean()) <= 1e-9
    assert abs(z.std() - 1.0) <= 1e-9


def test_normalize_constant_input_zeros():
    np.testing.assert_array_equal(D.normalize(np.full(100, 5.0)), np.zeros(100))


def test_normalize_idempotent():
    x = np.random.default_rng(1).standard_normal(500)
    once = D.normalize(x)
    np.testing.assert_allclose(D.normalize(once), once, atol=1e-9)


# -- superpose ----------------------------------------------------------------

def _wave(cls, idx, split="train", seed=5):
    w = D.gen_single(cls, seed, idx, split)
    w.sample_id = idx
    w.source_ids = [idx]
    return w


def test_superpose_zero_delay_is_scaled_sum():
    a = _wave("human", 0)
    b = _wave("animal", 1)
    mixed = D.superpose(a, b, 0, 1.0, 1.0)
    np.testing.assert_allclose(mixed.samples,
                               D.normalize(a.samples + b.samples), atol=1e-12)


def test_superpose_label_union_and_sources():
    mixed = D.superpose(_wave("human", 0), _wave("vehicle", 1), 100, 1.0, 2.0)
    np.testing.assert_array_equal(mixed.labels, [1, 0, 1, 0])
    assert mixed.source_ids == [0, 1]


def test_superpose_cross_correlation_peaks_at_delay():
    delay = 1500
    a = _wave("no_event", 0)
    b = _wave("no_event", 1)
    mixed = D.superpose(a, b, delay, 0.3, 1.0)
    # correlate mixture against the secondary at candidate lags
    lags = range(0, 4000, 100)
    corrs = [np.dot(mixed.samples[lag:], b.samples[:D.SEGMENT_LEN - lag])
             for lag in lags]
    assert list(lags)[int(np.argmax(corrs))] == delay


def test_superpose_split_leakage_hard_failure():
    a = _wave("human", 0, "train")
    b = _wave("animal", 1, "val")
    with pytest.raises(LeakageError):
        D.superpose(a, b, 0, 1.0, 1.0)


def test_superpose_validates_delay_and_scales():
    a, b = _wave("human", 0), _wave("animal", 1)
    with pytest.raises(ConfigError):
        D.superpose(a, b, 5000, 1.0, 1.0)
    with pytest.raises(ConfigError):
        D.superpose(a, b, 0, -1.0, 1.0)


# -- split --------------------------------------------------------------------

def test_split_counts_per_class():
    ids = {"a": list(range(100)), "b": list(range(100, 200))}
    parts = D.split_ids(ids, (0.8, 0.1, 0.1), seed=0)
    for cls_ids in ids.values():
        cls = set(cls_ids)
        assert len(parts["train"] & cls) == 80
        assert len(parts["val"] & cls) == 10
        assert len(parts["test"] & cls) == 10


def test_split_disjoint_and_deterministic():
    ids = {"a": list(range(50))}
    p1 = D.split_ids(ids, (0.8, 0.1, 0.1), seed=3)
    p2 = D.split_ids(ids, (0.8, 0.1, 0.1), seed=3)
    assert p1 == p2
    assert not (p1["train"] & p1["val"])
    assert not (p1["train"] & p1["test"])
    assert not (p1["val"] & p1["test"])


def test_split_bad_ratios_rejected():
    with pytest.raises(ConfigError):
        D.split_ids({"a": [1, 2]}, (0.8, 0.1, 0.2), seed=0)


# -- build_dataset ------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset():
    return D.build_dataset(small_cfg())


def test_dataset_counts(dataset):
    combos = {}
    for r in dataset.records:
        combos[r.combo] = combos.get(r.combo, 0) + 1
    assert len(combos) == 7
    assert all(v == 20 for v in combos.values())


def test_dataset_pair_labels(dataset):
    want = {"human+animal": [1, 1, 0, 0], "human+vehicle": [1, 0, 1, 0],
            "vehicle+animal": [0, 1, 1, 0]}
    for r in dataset.records:
        if r.combo in want:
            np.testing.assert_array_equal(r.labels, want[r.combo])


def test_dataset_leakage_free(dataset):
    split_of = {r.sample_id: r.split for r in dataset.records
                if len(r.source_ids) == 1}
    for r in dataset.records:
        for src in r.source_ids:
            assert split_of[src] == r.split


def test_dataset_label_soundness(dataset):
    for r in dataset.records:
        activity = int(r.labels[:3].sum())
        assert (r.labels[3] == 1) == (activity == 0)
        assert activity <= 2


def test_dataset_waveforms_normalized(dataset):
    for wave in dataset.waves.values():
        assert abs(wave.mean()) <= 1e-9
        assert abs(wave.std() - 1.0) <= 1e-9 or not wave.any()


def test_dataset_deterministic_rebuild(dataset):
    again = D.build_dataset(small_cfg())
    assert len(again.records) == len(dataset.records)
    for a, b in zip(again.records, dataset.records):
        assert a.sample_id == b.sample_id
        assert np.array_equal(a.labels, b.labels)
        assert a.source_ids == b.source_ids
        assert a.delay == b.delay
        assert a.scale_a == b.scale_a and a.scale_b == b.scale_b
    for sid in dataset.waves:
        assert again.waves[sid].tobytes() == dataset.waves[sid].tobytes()


def test_empty_pool_rejected():
    cfg = D.DatasetConfig(n_per_class=2, ratios=(0.5, 0.25, 0.25), seed=0)
    # 2 per class at 50/25/25 leaves at least one split empty for some class
    with pytest.raises(ConfigError):
        D.build_dataset(cfg)


# -- persistence --------------------------------------------------------------

def test_save_load_roundtrip(dataset, tmp_path):
    out = D.save_dataset(dataset, tmp_path / "ds")
    loaded = D.load_dataset(out)
    assert len(loaded.records) == len(dataset.records)
    x0, y0, ids0 = dataset.arrays("test")
    x1, y1, ids1 = loaded.arrays("test")
    assert ids0 == ids1
    np.testing.assert_array_equal(y0, y1)
    assert x0.tobytes() == x1.tobytes()


def test_manifest_byte_identical_regeneration(tmp_path):
    d1 = D.save_dataset(D.build_dataset(small_cfg(seed=9, n=8)), tmp_path / "a")
    d2 = D.save_dataset(D.build_dataset(small_cfg(seed=9, n=8)), tmp_path / "b")
    assert D.manifest_digest(d1) == D.manifest_digest(d2)
    for split in D.SPLITS:
        assert (d1 / f"{split}.bin").read_bytes() == \
            (d2 / f"{split}.bin").read_bytes()


def test_shards_hold_the_documented_record_layout(dataset, tmp_path):
    out = D.save_dataset(dataset, tmp_path / "ds")
    for split in D.SPLITS:
        records = [(sum(int(b) << i for i, b in enumerate(r.labels)), r.sample_id,
                    dataset.waves[r.sample_id]) for r in dataset.split_records(split)]
        assert (out / f"{split}.bin").read_bytes() == \
            np.array(records, D.SHARD_RECORD).tobytes()


def test_verify_shards_detects_corruption(dataset, tmp_path):
    out = D.save_dataset(dataset, tmp_path / "ds")
    assert D.verify_shards(out)
    blob = bytearray((out / "test.bin").read_bytes())
    blob[100] ^= 0xFF
    (out / "test.bin").write_bytes(bytes(blob))
    assert not D.verify_shards(out)
