import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hymad.errors import CompatibilityError, ConfigError
from hymad import datagen as D
from hymad import functional as F
from hymad import model as M
from hymad import train as T
from hymad.optim import AdamW

from oracles import train_step_one_graph


def tiny_model():
    return M.ModelConfig(n_filters=4, kernel_len=17, branches=1,
                         pool_stride=32, rnn_hidden=8, d_model=8, n_heads=1,
                         mlp_hidden=(16,), input_len=512)


@pytest.fixture(scope="module")
def tiny_data():
    # small single-activity dataset with short segments, carved from the
    # generated 8000-sample waveforms
    ds = D.build_dataset(D.DatasetConfig(n_per_class=10, seed=1))
    for sid in ds.waves:
        ds.waves[sid] = ds.waves[sid][:512].copy()
    return ds


def tiny_train(**kw):
    base = dict(lr=1e-2, batch_size=8, max_epochs=2, seed=0)
    base.update(kw)
    return T.TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        T.TrainConfig(lr=-1.0).validate()
    with pytest.raises(ConfigError):
        T.TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        T.TrainConfig(max_epochs=0).validate()


def test_zero_lr_zero_decay_leaves_params_bit_identical(tiny_data):
    cfg = tiny_model()
    before = T.params_digest(M.init_params(cfg, seed=0))
    params, _ = T.train(tiny_data, cfg, tiny_train(lr=0.0, weight_decay=0.0,
                                                   max_epochs=1))
    assert T.params_digest(params) == before


def test_loss_curve_deterministic(tiny_data):
    cfg = tiny_model()
    _, r1 = T.train(tiny_data, cfg, tiny_train())
    _, r2 = T.train(tiny_data, cfg, tiny_train())
    assert len(r1.losses) == len(r2.losses)
    for a, b in zip(r1.losses, r2.losses):
        assert abs(a - b) <= 1e-12
    assert r1.digests == r2.digests


def test_loss_decreases_on_tiny_dataset(tiny_data):
    cfg = tiny_model()
    _, rec = T.train(tiny_data, cfg, tiny_train(max_epochs=40, lr=1e-2))
    assert rec.losses[-1] <= 0.5 * rec.losses[0]


def test_checkpoint_roundtrip_bit_identical(tiny_data, tmp_path):
    cfg = tiny_model()
    params, _ = T.train(tiny_data, cfg, tiny_train())
    path = tmp_path / "m.ckpt"
    T.save_checkpoint(path, cfg, params)
    loaded = T.load_checkpoint(path, cfg)
    assert T.params_digest(loaded) == T.params_digest(params)
    x, _, _ = tiny_data.arrays("test")
    s1 = T.predict_scores(x, cfg, params)
    s2 = T.predict_scores(x, cfg, loaded)
    assert s1.tobytes() == s2.tobytes()


def test_checkpoint_digest_mismatch_rejected(tiny_data, tmp_path):
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    T.save_checkpoint(path, cfg, params)
    from dataclasses import replace
    other = replace(cfg, n_filters=8)
    with pytest.raises(CompatibilityError):
        T.load_checkpoint(path, other)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CompatibilityError):
        T.load_checkpoint(path, tiny_model())


def test_threshold_one_yields_zero_recall(tiny_data):
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    # 1.0 itself lies outside (0, 1); nothing clears the largest threshold
    # below it, so every prediction falls back to the no-event bit
    with pytest.raises(ConfigError):
        T.evaluate(tiny_data, "test", params, cfg, threshold=1.0)
    report = T.evaluate(tiny_data, "test", params, cfg,
                        threshold=np.nextafter(1.0, 0.0))
    fired = [row["tp"] + row["fp"] for row in report.per_label]
    assert fired == [0, 0, 0, report.n_samples]


def test_evaluate_deterministic(tiny_data, tmp_path):
    # the curve files hold the repr of each distinct score, so equal files
    # mean equal score bits
    cfg = tiny_model()
    params = M.init_params(cfg, seed=3)
    runs = [T.evaluate(tiny_data, "val", params, cfg, out_dir=tmp_path / r)
            for r in "ab"]
    assert vars(runs[0]) == vars(runs[1])
    for name in ("report_val.txt", "roc_val.csv", "pr_val.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_no_kernel_call_sees_more_than_step_rows(monkeypatch):
    # the convolution and attention kernels run their whole batch at once;
    # training microbatches and no-grad prediction bound it by STEP_ROWS
    ds = D.build_dataset(D.DatasetConfig(n_per_class=20, seed=1))
    for sid in ds.waves:
        ds.waves[sid] = ds.waves[sid][:512].copy()
    assert len(ds.split_records("train")) > 70
    seen = []

    def watch(fn):
        def watched(x, *args, **kw):
            seen.append(x.shape[0])
            return fn(x, *args, **kw)
        return watched

    monkeypatch.setattr(F, "conv1d_strided", watch(F.conv1d_strided))
    monkeypatch.setattr(M, "attention_block", watch(M.attention_block))
    params, _ = T.train(ds, tiny_model(), tiny_train(batch_size=70, max_epochs=1))
    # a batch of 70 runs as 32 + 32 + 6 rows
    assert max(seen) == T.STEP_ROWS and 6 in seen
    seen.clear()
    T.evaluate(ds, "train", params, tiny_model())
    assert seen and max(seen) == T.STEP_ROWS


def test_train_writes_artifacts(tiny_data, tmp_path):
    cfg = tiny_model()
    T.train(tiny_data, cfg, tiny_train(max_epochs=1), out_dir=tmp_path)
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()
    text = (tmp_path / "run_record.txt").read_text()
    assert "best_epoch" in text and "[epochs]" in text


def test_fusion_override_changes_graph(tiny_data):
    cfg = tiny_model()
    p1, _ = T.train(tiny_data, cfg, tiny_train(max_epochs=1))
    p2, _ = T.train(tiny_data, replace(cfg, fusion_mode="freq_only"),
                    tiny_train(max_epochs=1))
    assert set(p1) != set(p2)


def test_early_stop_caps_epochs(tiny_data):
    cfg = tiny_model()
    _, rec = T.train(tiny_data, cfg, tiny_train(max_epochs=5,
                                                early_stop_exact=0.0))
    assert len(rec.losses) == 1


def microbatched_step(x, y, cfg):
    """`train.train_step` over the rows of `x` from seed-0 parameters; returns
    its loss and the summed gradients it handed the optimizer."""
    params = M.init_params(cfg, seed=0)
    opt = AdamW(params.values(), lr=0.0, weight_decay=0.0)
    loss = T.train_step(list(x), y, np.arange(len(x)), cfg, params, opt)
    return loss, {k: p.grad for k, p in params.items()}


def stacked(ds, n):
    recs = ds.records[:n]
    return (np.stack([ds.waves[r.sample_id] for r in recs]),
            np.stack([r.labels for r in recs]).astype(np.float64))


def test_microbatched_step_matches_one_graph(tiny_data):
    # 70 rows run as 32 + 32 + 6; the rows' weights 32/70 and 6/70 are inexact
    cfg = tiny_model()
    x, y = stacked(tiny_data, 70)
    assert len(x) == 70 and 2 * T.STEP_ROWS < 70 < 3 * T.STEP_ROWS
    loss, grads = microbatched_step(x, y, cfg)
    ref_loss, ref = train_step_one_graph(x, y, cfg, M.init_params(cfg, seed=0))
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    assert grads.keys() == ref.keys()
    # an entry that cancels to near zero carries the rounding of its whole
    # sum, so each entry is held to 1e-12 of its own size or of the
    # parameter's largest entry
    for k in ref:
        np.testing.assert_allclose(grads[k], ref[k], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref[k]).max(), err_msg=k)


@pytest.mark.parametrize("rows", [5, 32])
def test_step_of_at_most_step_rows_is_the_one_graph_step(tiny_data, rows):
    cfg = tiny_model()
    x, y = stacked(tiny_data, rows)
    loss, grads = microbatched_step(x, y, cfg)
    ref_loss, ref = train_step_one_graph(x, y, cfg, M.init_params(cfg, seed=0))
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    for k in ref:
        assert grads[k].tobytes() == ref[k].tobytes(), k


def test_step_memory_does_not_grow_with_batch():
    # one epoch over 140 train rows; at B=128 a step ran one graph over 128
    # rows, and its peak grew with B
    ds = D.build_dataset(D.DatasetConfig(n_per_class=24, seed=1))
    for sid in ds.waves:
        ds.waves[sid] = ds.waves[sid][:512].copy()
    cfg = tiny_model()
    peaks = {}
    for b in (32, 128):
        tracemalloc.start()
        try:
            T.train(ds, cfg, tiny_train(batch_size=b, max_epochs=1))
            peaks[b] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[128] <= 1.3 * peaks[32], peaks
