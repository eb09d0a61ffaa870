import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hymad.errors import ShapeError
from hymad import metrics as MT

from oracles import curve_points_loop, macro_prf1, rankdata_loop, trapezoid_area


# -- strict / hamming ---------------------------------------------------------

def test_strict_perfect():
    y = np.array([[1, 0, 1], [0, 1, 0]])
    assert MT.strict_match_accuracy(y, y) == 1.0


def test_strict_one_wrong_bit_out_of_two_rows():
    truth = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    pred = truth.copy()
    pred[1, 2] = 1
    assert MT.strict_match_accuracy(pred, truth) == 0.5


def test_strict_superset_counts_wrong():
    truth = np.array([[1, 0, 0]])
    pred = np.array([[1, 1, 0]])
    assert MT.strict_match_accuracy(pred, truth) == 0.0


def test_hamming_perfect_and_worst():
    y = np.array([[1, 0], [0, 1]])
    assert MT.hamming_accuracy(y, y) == 1.0
    assert MT.hamming_accuracy(1 - y, y) == 0.0


def test_hamming_one_wrong_bit():
    truth = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    pred = truth.copy()
    pred[0, 3] = 1
    assert MT.hamming_accuracy(pred, truth) == pytest.approx(0.875)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        MT.strict_match_accuracy(np.zeros((2, 3)), np.zeros((2, 4)))


def test_hamming_ge_strict_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, l = rng.integers(1, 20), 4
        pred = rng.integers(0, 2, (n, l))
        truth = rng.integers(0, 2, (n, l))
        assert MT.hamming_accuracy(pred, truth) >= \
            MT.strict_match_accuracy(pred, truth)


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 2, (10, 4))
    truth = rng.integers(0, 2, (10, 4))
    rows = rng.permutation(10)
    cols = rng.permutation(4)
    assert MT.strict_match_accuracy(pred, truth) == \
        MT.strict_match_accuracy(pred[rows][:, cols], truth[rows][:, cols])
    assert MT.hamming_accuracy(pred, truth) == \
        MT.hamming_accuracy(pred[rows][:, cols], truth[rows][:, cols])


# -- macro P/R/F1 -------------------------------------------------------------

def test_prf1_perfect():
    y = np.array([[1, 0], [0, 1], [1, 1]])
    assert macro_prf1(y, y) == (1.0, 1.0, 1.0)


def test_prf1_no_positives_predicted():
    truth = np.array([[1, 1], [1, 0]])
    pred = np.zeros_like(truth)
    p, r, f = macro_prf1(pred, truth)
    assert r == 0.0 and f == 0.0


def test_prf1_hand_tally():
    # label 0: tp=1 fp=1 fn=1 -> p=r=f=0.5
    # label 1: tp=2 fp=0 fn=0 -> 1.0
    # label 2: tp=0 fp=0 fn=1 -> 0.0
    truth = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 0]])
    pred = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 0]])
    p, r, f = macro_prf1(pred, truth)
    assert p == pytest.approx((0.5 + 1.0 + 0.0) / 3)
    assert r == pytest.approx((0.5 + 1.0 + 0.0) / 3)
    assert f == pytest.approx((0.5 + 1.0 + 0.0) / 3)


def _brute_prf1(pred, truth):
    ps, rs, fs = [], [], []
    for j in range(truth.shape[1]):
        tp = fp = fn = 0
        for i in range(truth.shape[0]):
            if pred[i, j] and truth[i, j]:
                tp += 1
            elif pred[i, j] and not truth[i, j]:
                fp += 1
            elif not pred[i, j] and truth[i, j]:
                fn += 1
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
    return np.mean(ps), np.mean(rs), np.mean(fs)


def test_prf1_random_instances_match_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        pred = rng.integers(0, 2, (n, 4))
        truth = rng.integers(0, 2, (n, 4))
        got = macro_prf1(pred, truth)
        want = _brute_prf1(pred, truth)
        np.testing.assert_allclose(got, want, atol=1e-12)


# -- auroc --------------------------------------------------------------------

def _macro_auroc(scores, truth) -> float:
    """The report's macro AUROC, which `auroc` takes from per-label values."""
    return MT.compute_report(truth, truth, scores).auroc


def test_auroc_perfect_separation():
    scores = np.array([[0.9], [0.8], [0.2], [0.1]])
    truth = np.array([[1], [1], [0], [0]])
    assert _macro_auroc(scores, truth) == 1.0


def test_auroc_all_ties_half():
    scores = np.full((6, 1), 0.5)
    truth = np.array([[1], [0], [1], [0], [1], [0]])
    assert _macro_auroc(scores, truth) == pytest.approx(0.5)


def _brute_auc(s, y):
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


def test_auroc_matches_pair_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(4, 21))
        s = np.round(rng.standard_normal(n), 1)  # rounding forces ties
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            continue
        got = MT.label_auroc(s, y)
        assert got == pytest.approx(_brute_auc(s, y), abs=1e-12)


def test_auroc_skips_degenerate_labels():
    scores = np.array([[0.9, 0.1], [0.2, 0.3]])
    truth = np.array([[1, 1], [0, 1]])  # second label all-positive
    assert _macro_auroc(scores, truth) == 1.0


def test_auroc_all_degenerate_raises():
    with pytest.raises(ValueError):
        _macro_auroc(np.zeros((2, 1)), np.array([[1], [1]]))


# -- curves -------------------------------------------------------------------

def test_roc_endpoints():
    rng = np.random.default_rng(4)
    s = rng.random(20)
    y = rng.integers(0, 2, 20)
    pts = MT.curve_points(s, y, "roc")
    assert pts[0][:2] == (0.0, 0.0)
    assert pts[-1][:2] == (1.0, 1.0)


def test_roc_trapezoid_area_equals_rank_auroc():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        s = np.round(rng.standard_normal(n), 1)
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            continue
        pts = MT.curve_points(s, y, "roc")
        assert trapezoid_area(pts) == pytest.approx(MT.label_auroc(s, y),
                                                       abs=1e-9)


@settings(max_examples=200)
@given(st.data())
def test_tie_grouped_sweeps_match_loop_oracles(data):
    # few distinct levels force long tie runs; -0.0 and 0.0 tie, and the
    # threshold of a run is its first element in descending order
    levels = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                          st.floats(-2.0, 2.0)),
                                min_size=1, max_size=4), label="levels")
    n = data.draw(st.integers(2, 60), label="n")
    s = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n,
                                    max_size=n), label="scores"))
    y = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                           label="truth"))
    assert repr(MT._rankdata(s).tolist()) == repr(rankdata_loop(s).tolist())
    if 0 < y.sum() < n:
        for kind in ("roc", "pr"):
            assert repr(MT.curve_points(s, y, kind)) == \
                repr(curve_points_loop(s, y, kind))


def test_pr_curve_ends_at_full_recall_with_prevalence_precision():
    rng = np.random.default_rng(6)
    s = rng.random(30)
    y = rng.integers(0, 2, 30)
    pts = MT.curve_points(s, y, "pr")
    recall, precision, _ = pts[-1]
    assert recall == 1.0
    assert precision == pytest.approx(y.mean())


# -- report -------------------------------------------------------------------

def test_compute_report_fields_and_format():
    rng = np.random.default_rng(7)
    truth = rng.integers(0, 2, (20, 4))
    truth[0] = [1, 0, 0, 0]  # avoid degenerate columns
    truth[1] = [0, 1, 1, 1]
    pred = rng.integers(0, 2, (20, 4))
    scores = rng.random((20, 4))
    rep = MT.compute_report(pred, truth, scores)
    assert 0.0 <= rep.strict_match <= rep.hamming <= 1.0
    for v in (rep.precision, rep.recall, rep.f1, rep.auroc):
        assert 0.0 <= v <= 1.0
    text = rep.format()
    for key in ("exact_match_acc", "hamming_acc", "precision", "recall",
                "f1", "auroc"):
        assert key in text


@settings(max_examples=60)
@given(st.integers(2, 30), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_report_invariants(n, n_labels, seed):
    # random 0/1 predictions and truths; scores on a coarse grid, so ties in
    # the AUROC ranks occur
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 2, (n, n_labels))
    truth = rng.integers(0, 2, (n, n_labels))
    truth[:2, 0] = [1, 0]                 # one non-degenerate AUROC column
    scores = rng.integers(0, 5, (n, n_labels)) / 4.0
    rep = MT.compute_report(pred, truth, scores)
    assert rep.hamming >= rep.strict_match

    rows = rng.permutation(n)
    assert MT.compute_report(pred[rows], truth[rows], scores[rows]) == rep

    cols = rng.permutation(n_labels)
    swapped = MT.compute_report(pred[:, cols], truth[:, cols], scores[:, cols])
    for name in ("precision", "recall", "f1", "auroc"):
        # the macro mean adds the same per-label values in another order
        assert getattr(swapped, name) == pytest.approx(getattr(rep, name),
                                                       rel=1e-12, abs=0)


def test_write_curves_csv(tmp_path):
    rng = np.random.default_rng(8)
    truth = rng.integers(0, 2, (15, 2))
    truth[0] = [1, 0]
    truth[1] = [0, 1]
    scores = rng.random((15, 2))
    path = tmp_path / "roc.csv"
    MT.write_curves_csv(path, scores, truth, "roc")
    lines = path.read_text().splitlines()
    assert lines[0] == "label,threshold,x,y"
    assert len(lines) > 2
