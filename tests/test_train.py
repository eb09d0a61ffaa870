import ast
import ctypes
import gc
import sys
import threading
import time
import tracemalloc
import weakref
import concurrent.futures
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hymad.errors import CompatibilityError, ConfigError, NumericError
from hymad import compute, datagen as D
from hymad import functional as F
from hymad import model as M
from hymad import train as T
from hymad.optim import AdamW
from hymad.tensor import Tensor, grad_enabled, no_grad

from oracles import train_step_one_graph, train_step_sequential


def tiny_model():
    return M.ModelConfig(n_filters=4, kernel_len=17, branches=1,
                         pool_stride=32, rnn_hidden=8, d_model=8, n_heads=1,
                         mlp_hidden=(16,), input_len=512)


@pytest.fixture(scope="module")
def tiny_data():
    # small single-activity dataset with short segments, carved from the
    # generated 8000-sample waveforms
    ds = D.build_dataset(D.DatasetConfig(n_per_class=10, seed=1))
    ds.x = {split: x[:, :512].copy() for split, x in ds.x.items()}
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


# the step pool runs only with OpenBLAS thread control and a core per worker
needs_pool = pytest.mark.skipif(
    compute._openblas() is None or compute._cores() < compute.STEP_WORKERS,
    reason="training steps run sequentially on this machine")


def test_no_kernel_call_sees_more_than_step_rows(monkeypatch):
    # the convolution and attention kernels run their whole batch at once;
    # a training step or prediction bounds it by CHUNK_ROWS, pooled or not
    ds = D.build_dataset(D.DatasetConfig(n_per_class=20, seed=1))
    ds.x = {split: x[:, :512].copy() for split, x in ds.x.items()}
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
    # a batch of 70 runs as 16 + 16 + 16 + 16 + 6 rows
    assert max(seen) == compute.CHUNK_ROWS and 6 in seen
    seen.clear()
    T.evaluate(ds, "train", params, tiny_model())
    assert seen and max(seen) == compute.CHUNK_ROWS


def test_evaluate_and_train_read_the_stored_split_in_place(tiny_data,
                                                           monkeypatch):
    # no whole-split copy: evaluate hands predict_scores views of the
    # stored split, and each microbatch of a step gathers its own rows
    assert all(tiny_data.arrays(s)[0] is tiny_data.x[s] for s in D.SPLITS)
    predicted, gathered = [], []
    predict, microbatch = T.predict_scores, T._microbatch

    def watched_predict(x, *args):
        predicted.append(x)
        return predict(x, *args)

    def watched_microbatch(ids, x, *args):
        gathered.append(x)
        return microbatch(ids, x, *args)

    monkeypatch.setattr(T, "predict_scores", watched_predict)
    monkeypatch.setattr(T, "_microbatch", watched_microbatch)
    cfg = tiny_model()
    params, _ = T.train(tiny_data, cfg, tiny_train(max_epochs=2))
    T.evaluate(tiny_data, "test", params, cfg)
    splits = ["val", "val", "test"]
    assert len(predicted) == len(splits)
    for x, split in zip(predicted, splits):
        assert np.shares_memory(x, tiny_data.x[split])
    assert gathered and all(x is tiny_data.x["train"] for x in gathered)


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
    loss = T.train_step(x, y, np.arange(len(x)), cfg, params, opt)
    return loss, {k: p.grad for k, p in params.items()}


def stacked(ds, n):
    """The waves and float labels of the first n records, in manifest order."""
    rows = {split: iter(x) for split, x in ds.x.items()}
    recs = ds.records[:n]
    return (np.stack([next(rows[r.split]) for r in recs]),
            np.stack([r.labels for r in recs]).astype(np.float64))


def test_microbatched_step_matches_one_graph(tiny_data):
    # 70 rows run as 16 + 16 + 16 + 16 + 6; the rows' weights 16/70 and
    # 6/70 are inexact
    cfg = tiny_model()
    x, y = stacked(tiny_data, 70)
    assert len(x) == 70 and 4 * compute.CHUNK_ROWS < 70 < 5 * compute.CHUNK_ROWS
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


@pytest.mark.parametrize("rows", [5, compute.CHUNK_ROWS])
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
    ds.x = {split: x[:, :512].copy() for split, x in ds.x.items()}
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


def random_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, tiny_model().input_len)),
            (rng.random((n, 4)) < 0.5).astype(np.float64))


def forward_rows(monkeypatch, probe=lambda: None):
    """Records the rows of every forward pass and what `probe` reads during
    it."""
    seen = []
    forward = M.forward_batch

    def watched(x, cfg, params):
        seen.append((x.shape[0], probe()))
        return forward(x, cfg, params)

    monkeypatch.setattr(M, "forward_batch", watched)
    return seen


def assert_same_step(a, b):
    assert np.float64(a[0]).tobytes() == np.float64(b[0]).tobytes()
    assert a[1].keys() == b[1].keys()
    for k in a[1]:
        assert a[1][k].tobytes() == b[1][k].tobytes(), k


@needs_pool
def test_pooled_step_reruns_are_bit_identical(monkeypatch):
    x, y = random_batch(128)
    get = compute._openblas()[0]
    seen = forward_rows(monkeypatch, probe=get)
    runs = [microbatched_step(x, y, tiny_model()) for _ in range(5)]
    # 8 microbatches of 16 rows per step, each worker at its share of
    # OpenBLAS's threads
    assert sorted(seen) == [(compute.CHUNK_ROWS,
                             max(1, get() // compute.STEP_WORKERS))] * 40
    for run in runs[1:]:
        assert_same_step(run, runs[0])


@needs_pool
def test_pooled_step_equals_its_microbatches_run_in_turn(monkeypatch):
    x, y = random_batch(128, seed=1)
    pooled = microbatched_step(x, y, tiny_model())
    assert isinstance(compute._pool, concurrent.futures.ThreadPoolExecutor)
    # under a wrapped Tensor.backward the step runs the same 16-row
    # microbatches one after another in this thread, at the same OpenBLAS
    # thread count
    get = compute._openblas()[0]
    share = max(1, get() // compute.STEP_WORKERS)
    backward = Tensor.backward
    monkeypatch.setattr(Tensor, "backward", lambda t: backward(t))
    seen = forward_rows(monkeypatch,
                        probe=lambda: (threading.current_thread(), get()))
    in_turn = microbatched_step(x, y, tiny_model())
    assert seen == [(16, (threading.main_thread(), share))] * 8
    assert_same_step(in_turn, pooled)


@needs_pool
def test_blas_threads_are_restored_after_a_pooled_step():
    get = compute._openblas()[0]
    before = get()
    x, y = random_batch(70)
    microbatched_step(x, y, tiny_model())
    assert get() == before
    x[50] = np.nan
    with pytest.raises(NumericError):
        microbatched_step(x, y, tiny_model())
    assert get() == before


def in_threads(*targets, timeout=120):
    """Each target called in a thread of its own, all started at once; their
    results in order, or the first error raised in one."""
    results, errors = [None] * len(targets), []

    def run(i, fn):
        try:
            results[i] = fn()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i, fn))
               for i, fn in enumerate(targets)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a thread did not finish"
    if errors:
        raise errors[0]
    return results


@needs_pool
def test_pooled_steps_in_two_threads_restore_blas_threads():
    # each thread's pooled blocks save OpenBLAS's count, share it out and
    # restore it; two threads' blocks run one after the other, so neither
    # saves the other's share, and each step equals the step run alone
    get = compute._openblas()[0]
    before = get()
    batches = [random_batch(64, seed=s) for s in (7, 8)]
    alone = [microbatched_step(x, y, tiny_model()) for x, y in batches]
    runs = in_threads(*(
        lambda x=x, y=y: [microbatched_step(x, y, tiny_model())
                          for _ in range(20)]
        for x, y in batches))
    assert get() == before
    for steps, step in zip(runs, alone):
        for s in steps:
            assert_same_step(s, step)


@needs_pool
def test_two_first_pooled_calls_make_one_pool(monkeypatch):
    made = []
    executor = concurrent.futures.ThreadPoolExecutor

    def slow_executor(*args, **kw):
        time.sleep(0.2)               # long enough for the other call to look
        made.append(executor(*args, **kw))
        return made[-1]

    monkeypatch.setattr(compute, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        slow_executor)
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    x, _ = random_batch(2 * compute.CHUNK_ROWS, seed=9)
    try:
        first, second = in_threads(
            *[lambda: T.predict_scores(x, cfg, params)] * 2)
    finally:
        for pool in made:
            pool.shutdown()
    assert len(made) == 1
    assert first.tobytes() == second.tobytes()


@needs_pool
@pytest.mark.parametrize("count", [1, 4])
def test_pooled_step_shares_out_the_callers_blas_threads(monkeypatch, count):
    # the workers share the count OpenBLAS had, whatever the cores: a count
    # the caller limited is never raised
    get, put = compute._openblas()
    before = get()
    seen = forward_rows(monkeypatch, probe=get)
    x, y = random_batch(64)
    put(count)
    try:
        microbatched_step(x, y, tiny_model())
        assert get() == count
    finally:
        put(before)
    assert seen == [(compute.CHUNK_ROWS, max(1, count // compute.STEP_WORKERS))] * 4


@needs_pool
def test_pooled_step_drops_each_microbatch_gradient_once_summed(monkeypatch):
    # the optimizer step sees the running sum alone: no microbatch's own
    # gradients are still alive, so a step's memory does not grow with the
    # number of its microbatches
    produced = []
    microbatch = T._microbatch

    def watched(*args):
        loss, grads = microbatch(*args)
        produced.extend(weakref.ref(g) for g in grads.values())
        return loss, grads

    alive = []

    def step(opt):
        gc.collect()
        alive.append(sum(r() is not None for r in produced))

    monkeypatch.setattr(T, "_microbatch", watched)
    monkeypatch.setattr(AdamW, "step", step)
    x, y = random_batch(128)
    microbatched_step(x, y, tiny_model())
    assert len(produced) == 8 * len(M.init_params(tiny_model(), seed=0))
    assert alive == [0]


@needs_pool
def test_traced_step_runs_the_pooled_microbatches_in_turn(monkeypatch,
                                                          busy_workers):
    # perfbench's per-layer tracer wraps Tensor.backward and follows one
    # graph at a time, so a step under it runs the pool's 16-row
    # microbatches in this thread, at the workers' BLAS share: its traced
    # and untraced calls give the same step bit for bit
    monkeypatch.syspath_prepend(str(Path(T.__file__).parents[2] / "perfbench"))
    from tracing import Tracer
    x, y = random_batch(70)
    pooled = microbatched_step(x, y, tiny_model())
    get = compute._openblas()[0]
    share = max(1, get() // compute.STEP_WORKERS)

    def probe():
        return get(), busy_workers()

    seen = forward_rows(monkeypatch, probe)
    tracer = Tracer()
    with tracer.installed():
        traced = microbatched_step(x, y, tiny_model())
    # each traced forward is followed by the tracer's monolithic rebuild
    assert seen == [(16, (share, 0))] * 8 + [(6, (share, 0))] * 2
    assert tracer.grad_checks == [True] * 5
    assert_same_step(traced, pooled)


@needs_pool
def test_first_failing_microbatch_in_order_raises(monkeypatch, busy_workers):
    # rows 0 and 40 are NaN, in microbatches 0 and 2 of 16 rows; microbatch
    # 0 fails last in time, and its error is the one raised, once no worker
    # is running
    x, y = random_batch(64)
    x[[0, 40]] = np.nan
    errors = []
    forward = M.forward_batch

    def watched(x, cfg, params):
        if np.isnan(x[0, 0]):
            time.sleep(0.5)
        try:
            return forward(x, cfg, params)
        except NumericError as exc:
            errors.append((bool(np.isnan(x[0, 0])), exc))
            raise

    monkeypatch.setattr(M, "forward_batch", watched)
    with pytest.raises(NumericError) as raised:
        microbatched_step(x, y, tiny_model())
    assert busy_workers() == 0
    assert [first for first, _ in errors] == [False, True]
    assert raised.value is errors[1][1]


@needs_pool
def test_pooled_overflow_is_numeric_error_naming_its_rows():
    # numpy's error state does not carry into pool threads; each worker
    # sets its own, so an overflow there raises, not warns
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    for p in params.values():
        p.data = p.data * 1e300
    x, y = random_batch(64)
    with pytest.raises(NumericError, match=r"^overflow encountered .* at "
                       r"epoch 3, batch ids \[0, 1, 2, .*15\]$"):
        T.train_step(x, y, np.arange(64), cfg, params,
                     AdamW(params.values()), epoch=3)


def sequential_scores(x, cfg, params, rows):
    """Sigmoid scores over `rows`-row batches in turn, without a pool."""
    with no_grad():
        return np.concatenate([
            F.sigmoid(M.forward_batch(x[i:i + rows], cfg, params).data)
            for i in range(0, len(x), rows)])


@needs_pool
def test_pooled_prediction_equals_its_chunks_run_in_turn(monkeypatch):
    # more than CHUNK_ROWS waveforms run as 16-row chunks on the step pool,
    # each with graph construction off in its own thread; under a wrapped
    # Tensor.backward the same chunks run one after another in this thread,
    # at the workers' OpenBLAS thread count, bit for bit
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    x, _ = random_batch(70, seed=2)
    get = compute._openblas()[0]
    share = max(1, get() // compute.STEP_WORKERS)
    seen = forward_rows(monkeypatch, probe=lambda: (
        threading.current_thread(), get(), grad_enabled()))
    pooled = T.predict_scores(x, cfg, params)
    assert isinstance(compute._pool, concurrent.futures.ThreadPoolExecutor)
    assert sorted(n for n, _ in seen) == [6, 16, 16, 16, 16]
    assert all(t.name.startswith("hymad-step") and n == share and not grad
               for _, (t, n, grad) in seen)
    seen.clear()
    backward = Tensor.backward
    monkeypatch.setattr(Tensor, "backward", lambda t: backward(t))
    in_turn = T.predict_scores(x, cfg, params)
    main = (threading.main_thread(), share, False)
    assert seen == [(16, main)] * 4 + [(6, main)]
    assert pooled.tobytes() == in_turn.tobytes()


@needs_pool
def test_pooled_prediction_matches_step_rows_batches_in_turn():
    # the chunks and the BLAS split differ from 32-row batches in turn, so
    # the scores may differ in their last bits, and in row order not at all
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    x, _ = random_batch(100, seed=3)
    scores = T.predict_scores(x, cfg, params)
    assert scores.shape == (100, 4)
    np.testing.assert_allclose(scores, sequential_scores(x, cfg, params, 32),
                               rtol=0, atol=1e-12)


def test_prediction_of_at_most_step_rows_runs_in_the_calling_thread(
        monkeypatch):
    monkeypatch.setattr(compute, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", fail)
    cfg = tiny_model()
    params = M.init_params(cfg, seed=0)
    x, _ = random_batch(compute.CHUNK_ROWS, seed=4)
    seen = forward_rows(monkeypatch, probe=threading.current_thread)
    scores = T.predict_scores(x, cfg, params)
    assert seen == [(compute.CHUNK_ROWS, threading.main_thread())]
    assert compute._pool is None
    assert scores.tobytes() == \
        sequential_scores(x, cfg, params, compute.CHUNK_ROWS).tobytes()


@needs_pool
def test_pooled_evaluate_raises_the_first_failing_chunk(tiny_data, monkeypatch,
                                                         busy_workers):
    # split rows 0 and 40 are NaN, in chunks 0 and 2 of 16 rows; chunk 0
    # fails after chunk 2, while the last chunk of 8 rows is still running,
    # and its error, naming its rows, is the one raised, once no worker is
    # running
    ds = replace(tiny_data, x={**tiny_data.x,
                               "train": tiny_data.x["train"].copy()})
    assert len(ds.split_records("train")) > 40
    ds.x["train"][[0, 40]] = np.nan
    errors = []
    forward = M.forward_batch

    def watched(x, cfg, params):
        if np.isnan(x[0, 0]):
            time.sleep(0.5)
        elif len(x) < 16:
            time.sleep(1.0)
        try:
            return forward(x, cfg, params)
        except NumericError as exc:
            errors.append((bool(np.isnan(x[0, 0])), exc))
            raise

    monkeypatch.setattr(M, "forward_batch", watched)
    cfg = tiny_model()
    with pytest.raises(NumericError, match=r" at rows 0-15$") as raised:
        T.evaluate(ds, "train", M.init_params(cfg, seed=0), cfg)
    assert busy_workers() == 0
    assert [first for first, _ in errors] == [False, True]
    assert raised.value.__cause__ is errors[1][1]


def fail(*args, **kw):
    raise AssertionError("called")


def test_step_of_at_most_step_rows_starts_no_thread(monkeypatch):
    monkeypatch.setattr(compute, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", fail)
    threads = threading.active_count()
    x, y = random_batch(compute.CHUNK_ROWS)
    microbatched_step(x, y, tiny_model())
    assert compute._pool is None and threading.active_count() == threads


@needs_pool
def test_step_of_more_than_chunk_rows_runs_its_chunks_on_the_pool(
        monkeypatch):
    # a B=32 step, as the small config's, runs as two 16-row microbatches
    # on the pool at the workers' BLAS share, not as one 32-row graph here
    get = compute._openblas()[0]
    share = max(1, get() // compute.STEP_WORKERS)
    seen = forward_rows(monkeypatch,
                        probe=lambda: (threading.current_thread().name, get()))
    x, y = random_batch(2 * compute.CHUNK_ROWS, seed=6)
    microbatched_step(x, y, tiny_model())
    assert [n for n, _ in seen] == [16, 16]
    assert all(name.startswith("hymad-step") and count == share
               for _, (name, count) in seen)


def test_prediction_in_another_thread_leaves_a_step_its_graph():
    # grad mode is per thread: a prediction's no_grad in one thread must not
    # stop the graph a training step builds in another, whatever the
    # interleaving, so the steps equal the step run alone bit for bit
    cfg = tiny_model()
    x, y = random_batch(8, seed=5)
    alone = microbatched_step(x, y, cfg)
    params = M.init_params(cfg, seed=1)
    stop, errors, steps = threading.Event(), [], []

    def predict():
        try:
            while not stop.is_set():
                T.predict_scores(x, cfg, params)
        except Exception as exc:
            errors.append(exc)

    other = threading.Thread(target=predict)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        other.start()
        for _ in range(5):
            steps.append(microbatched_step(x, y, cfg))
    finally:
        stop.set()
        other.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not other.is_alive() and not errors
    for step in steps:
        assert_same_step(step, alone)


def test_train_and_evaluate_do_not_trim_the_heap(tiny_data, monkeypatch):
    # the heap is trimmed where a split is mapped (datagen), so an evaluate
    # after train, as in run_ablations, finds its heap pages still mapped
    calls = []
    monkeypatch.setattr(compute, "trim_heap", lambda: calls.append("trim"))
    params, _ = T.train(tiny_data, tiny_model(), tiny_train(max_epochs=1))
    T.evaluate(tiny_data, "test", params, tiny_model())
    assert calls == []


def test_one_step_worker_is_the_sequential_step(monkeypatch):
    # no pool, no OpenBLAS or allocator call: the pool's 16-row microbatches
    # one after another, bit for bit the step's loop before it had a pool
    monkeypatch.setattr(compute, "STEP_WORKERS", 1)
    monkeypatch.setattr(compute, "_pool", None)
    monkeypatch.setattr(compute, "_openblas", fail)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", fail)
    monkeypatch.setattr(ctypes, "CDLL", fail)
    monkeypatch.setattr(compute, "_libc", fail)
    x, y = random_batch(70)
    seen = forward_rows(monkeypatch)
    step = microbatched_step(x, y, tiny_model())
    assert seen == [(16, None)] * 4 + [(6, None)] and compute._pool is None
    assert_same_step(step, train_step_sequential(
        x, y, tiny_model(), M.init_params(tiny_model(), seed=0), 16))


def test_only_compute_imports_ctypes_or_concurrent_futures():
    # the process-wide execution state (the step pool, OpenBLAS's thread
    # count and the glibc calls) lives in one module
    importers = set()
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "ctypes" or name.startswith(
                    ("ctypes.", "concurrent.futures")) for name in names):
                importers.add(path.name)
    assert importers == {"compute.py"}
