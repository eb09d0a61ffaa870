"""Acceptance suite: the nine shipping criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test name also states its criterion, so plain `-v` output reads
as the pass/fail summary.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from hymad import datagen as D
from hymad import functional as F
from hymad import metrics as Me
from hymad import model as M
from hymad import sincnet as S
from hymad import train as T
from hymad.functional import bce_with_logits
from hymad.optim import grad_check
from hymad.tensor import Tensor

from oracles import conv1d_same_naive


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}", file=sys.stderr)
        raise
    print(f"[PASS] criterion {num}: {desc}", file=sys.stderr)


# -- criterion 1: gradient correctness ---------------------------------------

def test_criterion_1_gradient_correctness():
    cfg = M.ModelConfig(n_filters=4, kernel_len=17, branches=1, pool_stride=4, conv_stride=4,
                        rnn_hidden=8, d_model=8, n_heads=1, mlp_hidden=(16,),
                        input_len=256)
    params = M.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, cfg.input_len))
    y = rng.integers(0, 2, (2, cfg.n_labels)).astype(np.float64)

    def loss_fn():
        return bce_with_logits(M.forward_batch(x, cfg, params), y)

    t0 = time.time()
    result = grad_check(loss_fn, list(params.values()))
    elapsed = time.time() - t0
    with criterion(1, "gradient correctness vs central differences"):
        assert result["max_rel_err"] <= 1e-4, result["max_rel_err"]
        assert elapsed <= 60.0, f"grad check took {elapsed:.1f}s"


# -- criterion 2: sinc frontend fidelity -------------------------------------

def test_criterion_2_sinc_frontend_fidelity():
    fs, l_len = 8000.0, 251
    kernel = S.build_filter(50.0, 150.0, l_len, fs, "hamming")
    kd = kernel.data.reshape(-1)
    nfft = 8192
    mag = np.abs(np.fft.rfft(kd, nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    passband = mag[(freqs >= 50.0) & (freqs <= 150.0)].mean()
    stopband = mag[(freqs <= 25.0) | ((freqs >= 300.0) & (freqs <= 4000.0))].mean()

    x = np.random.default_rng(1).standard_normal(600)
    fast = F.conv1d_same(Tensor(x), kernel.reshape(1, l_len)).data[0]
    naive = conv1d_same_naive(x, kd.reshape(1, l_len))[0]

    with criterion(2, "sinc frontend passband selectivity and conv oracle"):
        assert passband >= 10.0 * stopband, (passband, stopband)
        np.testing.assert_allclose(fast, naive, atol=1e-10)


# -- criterion 3: attention / fusion correctness -----------------------------

def test_criterion_3_attention_fusion_correctness():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((6, 8))
    k = rng.standard_normal((6, 8))
    v = rng.standard_normal((6, 8))
    out = F.attention(Tensor(q), Tensor(k), Tensor(v))
    weights = F.softmax_rows(Tensor(q @ k.T / np.sqrt(8.0)))
    scores = q @ k.T / np.sqrt(8.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w_ref = e / e.sum(axis=1, keepdims=True)
    oracle = w_ref @ v

    cfg = M.ModelConfig(n_filters=4, kernel_len=17, branches=1, pool_stride=4, conv_stride=4,
                        rnn_hidden=8, d_model=8, n_heads=2, mlp_hidden=(16,),
                        input_len=64)
    params = M.init_params(cfg, seed=0)
    x = Tensor(rng.standard_normal((2, 10, cfg.d_model)))
    block = M.self_attention_block(x, params, "self_freq", cfg.n_heads).data
    perm = rng.permutation(10)
    block_p = M.self_attention_block(
        Tensor(x.data[:, perm, :]), params, "self_freq", cfg.n_heads).data

    a = Tensor(rng.standard_normal((2, 10, cfg.d_model)))
    b = Tensor(rng.standard_normal((2, 10, cfg.d_model)))
    fused = M.cross_fuse(a, b, params, cfg.n_heads)

    with criterion(3, "attention oracle, row sums, permutation equivariance, "
                      "fusion width"):
        np.testing.assert_allclose(out.data, oracle, atol=1e-10)
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(block[:, perm, :], block_p, atol=1e-12)
        assert fused.shape[-1] == 2 * cfg.d_model


# -- criterion 4: metric oracles ---------------------------------------------

def _brute_prf1(pred, true):
    ps, rs, fs = [], [], []
    for j in range(true.shape[1]):
        tp = int(((pred[:, j] == 1) & (true[:, j] == 1)).sum())
        fp = int(((pred[:, j] == 1) & (true[:, j] == 0)).sum())
        fn = int(((pred[:, j] == 0) & (true[:, j] == 1)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p); rs.append(r); fs.append(f)
    return np.mean(ps), np.mean(rs), np.mean(fs)


def _brute_auroc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return np.nan
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        true = rng.integers(0, 2, (n, 4))
        pred = rng.integers(0, 2, (n, 4))
        scores = np.round(rng.random((n, 4)), 1)   # coarse grid forces ties

        assert abs(Me.strict_match_accuracy(pred, true)
                   - np.mean([(pred[i] == true[i]).all() for i in range(n)])) \
            <= 1e-12
        assert abs(Me.hamming_accuracy(pred, true)
                   - (pred == true).mean()) <= 1e-12
        p, r, f = Me.macro_prf1(pred, true)
        bp, br, bf = _brute_prf1(pred, true)
        assert abs(p - bp) <= 1e-12 and abs(r - br) <= 1e-12 \
            and abs(f - bf) <= 1e-12
        for j in range(4):
            ref = _brute_auroc(scores[:, j], true[:, j])
            got = Me.label_auroc(scores[:, j], true[:, j])
            if np.isnan(ref):
                assert got is None
            else:
                assert abs(got - ref) <= 1e-12

    pred = np.array([[1, 0, 1, 0], [0, 1, 0, 0]])
    true = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
    with criterion(4, "metric oracles incl. worked example "
                      "(hamming 0.875, strict 0.5)"):
        assert Me.hamming_accuracy(pred, true) == 0.875
        assert Me.strict_match_accuracy(pred, true) == 0.5


# -- criterion 5: dataset protocol -------------------------------------------

def test_criterion_5_dataset_protocol(tmp_path):
    cfg = D.DatasetConfig(n_per_class=400, seed=0)
    t0 = time.time()
    ds = D.build_dataset(cfg)
    build_time = time.time() - t0

    split_of = {r.sample_id: r.split for r in ds.records
                if len(r.source_ids) == 1}
    leaks = sum(1 for r in ds.records for s in r.source_ids
                if split_of[s] != r.split)

    pair_labels = {"human+animal": [1, 1, 0, 0], "human+vehicle": [1, 0, 1, 0],
                   "vehicle+animal": [0, 1, 1, 0]}
    label_ok = all(np.array_equal(r.labels, pair_labels[r.combo])
                   for r in ds.records if r.combo in pair_labels)

    d1 = D.save_dataset(ds, tmp_path / "a")
    d2 = D.save_dataset(D.build_dataset(cfg), tmp_path / "b")
    identical = all((d1 / f"{s}.bin").read_bytes() == (d2 / f"{s}.bin").read_bytes()
                    for s in D.SPLITS)

    with criterion(5, "dataset protocol: no leakage, union labels, "
                      "byte-identical regeneration"):
        assert leaks == 0
        assert label_ok
        assert identical
        assert D.manifest_digest(d1) == D.manifest_digest(d2)
        assert build_time <= 120.0, f"build took {build_time:.1f}s"


# -- criterion 6: end-to-end learning ----------------------------------------

@pytest.fixture(scope="module")
def desk_dataset():
    return D.build_dataset(D.DatasetConfig(n_per_class=400, seed=0))


def test_criterion_6_end_to_end_learning(desk_dataset):
    cfg = M.ModelConfig()
    tcfg = T.TrainConfig(lr=3e-3, batch_size=128, max_epochs=50, seed=0,
                         early_stop_exact=0.90)
    t0 = time.time()
    params, record = T.train(desk_dataset, cfg, tcfg)
    elapsed = time.time() - t0
    report = T.evaluate(desk_dataset, "test", params, cfg)
    with criterion(6, f"end-to-end learning: test exact "
                      f"{report.strict_match:.3f} >= 0.85, hamming "
                      f"{report.hamming:.3f} >= 0.93 "
                      f"({len(record.losses)} epochs, {elapsed:.0f}s)"):
        assert report.strict_match >= 0.85
        assert report.hamming >= 0.93
        assert len(record.losses) <= 50
        assert elapsed <= 1800.0


# -- criterion 7: ablation ordering ------------------------------------------

def test_criterion_7_ablation_ordering():
    ds = D.build_dataset(D.DatasetConfig(n_per_class=60, seed=2))
    cfg = M.ModelConfig(n_filters=8, kernel_len=65, branches=1,
                        pool_stride=200, rnn_hidden=16, d_model=16, n_heads=1,
                        mlp_hidden=(32,))
    tcfg = T.TrainConfig(lr=3e-3, batch_size=32, max_epochs=12, seed=0)
    results = T.run_ablations(ds, cfg, tcfg)
    f1 = {k: v.f1 for k, v in results.items()}
    tol = 0.005                       # ties within 0.5 F1 points satisfy >=
    with criterion(7, "ablation ordering: full {full:.3f} >= concat "
                      "{concat:.3f} >= max(freq {freq_only:.3f}, "
                      "single {single_scale:.3f})".format(**f1)):
        assert f1["full"] >= f1["concat"] - tol
        assert f1["concat"] >= max(f1["freq_only"], f1["single_scale"]) - tol


# -- criterion 8: determinism and persistence --------------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    ds = D.build_dataset(D.DatasetConfig(n_per_class=12, seed=4))
    cfg = M.ModelConfig(n_filters=4, kernel_len=33, branches=1,
                        pool_stride=400, rnn_hidden=8, d_model=8,
                        mlp_hidden=(16,))
    tcfg = T.TrainConfig(lr=1e-2, batch_size=16, max_epochs=3, seed=0)
    params, r1 = T.train(ds, cfg, tcfg)
    _, r2 = T.train(ds, cfg, tcfg)

    path = tmp_path / "m.ckpt"
    T.save_checkpoint(path, cfg, params)
    loaded = T.load_checkpoint(path, cfg)
    x, _, _ = ds.arrays("test")
    s1 = T.predict_scores(x, cfg, params)
    s2 = T.predict_scores(x, cfg, loaded)

    with criterion(8, "checkpoint round-trip bit-identical; "
                      "loss curves identical within 1e-12"):
        assert s1.tobytes() == s2.tobytes()
        assert len(r1.losses) == len(r2.losses)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(r1.losses, r2.losses))


# -- criterion 9: curve consistency ------------------------------------------

def test_criterion_9_curve_consistency():
    rng = np.random.default_rng(5)
    scores = np.round(rng.random((200, 4)), 2)      # heavy ties
    labels = rng.integers(0, 2, (200, 4))
    with criterion(9, "ROC trapezoid area equals rank AUROC within 1e-9"):
        for j in range(4):
            points = Me.curve_points(scores[:, j], labels[:, j], "roc")
            area = Me.trapezoid_area(points)
            rank = Me.label_auroc(scores[:, j], labels[:, j])
            assert abs(area - rank) <= 1e-9, (j, area, rank)
