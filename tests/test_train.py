from dataclasses import replace

import numpy as np
import pytest

from hymad.errors import CompatibilityError, ConfigError
from hymad import datagen as D
from hymad import model as M
from hymad import train as T


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
    x, y, _ = tiny_data.arrays("test")
    # 1.0 itself lies outside (0, 1); nothing clears the largest threshold
    # below it, so every prediction falls back to the no-event bit
    with pytest.raises(ConfigError):
        T.evaluate_arrays(x, y, cfg, params, threshold=1.0)
    report, _, pred = T.evaluate_arrays(x, y, cfg, params,
                                        threshold=np.nextafter(1.0, 0.0))
    assert pred[:, :3].sum() == 0
    assert pred[:, 3].all()


def test_evaluate_deterministic(tiny_data):
    cfg = tiny_model()
    params = M.init_params(cfg, seed=3)
    x, y, _ = tiny_data.arrays("val")
    r1, s1, _ = T.evaluate_arrays(x, y, cfg, params)
    r2, s2, _ = T.evaluate_arrays(x, y, cfg, params)
    assert s1.tobytes() == s2.tobytes()
    assert r1.strict_match == r2.strict_match


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
