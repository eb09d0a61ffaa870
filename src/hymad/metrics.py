"""Multi-label evaluation: strict match, Hamming, macro P/R/F1, AUROC, curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hymad.errors import ShapeError


def _check_pair(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 2:
        raise ShapeError(f"pred {pred.shape} and truth {truth.shape} must be equal 2-d")
    return pred.astype(np.int64), truth.astype(np.int64)


def strict_match_accuracy(pred, truth) -> float:
    """Fraction of rows whose full label set matches exactly."""
    pred, truth = _check_pair(pred, truth)
    return float(np.mean(np.all(pred == truth, axis=1)))


def hamming_accuracy(pred, truth) -> float:
    """Fraction of matching label bits over all N*L cells."""
    pred, truth = _check_pair(pred, truth)
    return float(np.mean(pred == truth))


def _confusions(pred: np.ndarray, truth: np.ndarray) -> list[tuple]:
    """Per-label (tp, fp, fn, tn) counts of checked 0/1 arrays."""
    cells = [((pred == p) & (truth == t)).sum(axis=0)
             for p, t in ((1, 1), (1, 0), (0, 1), (0, 0))]
    return [tuple(int(c[j]) for c in cells) for j in range(truth.shape[1])]


def _macro(counts) -> tuple[float, float, float]:
    """Macro-averaged precision/recall/F1 of per-label confusion counts."""
    ps, rs, fs = [], [], []
    for tp, fp, fn, _ in counts:
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs))


def _rankdata(a: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    _, inv, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inv]


def label_auroc(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """Mann-Whitney AUROC for one label column; None if degenerate."""
    truth = np.asarray(truth).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _rankdata(scores)
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auroc(per_label: list) -> float:
    """Macro AUROC: the mean of the `label_auroc` values that are defined,
    i.e. over labels with at least one positive and one negative."""
    vals = [v for v in per_label if v is not None]
    if not vals:
        raise ValueError("all label columns are degenerate; AUROC undefined")
    return float(np.mean(vals))


def curve_points(scores: np.ndarray, truth: np.ndarray,
                 kind: str = "roc") -> list[tuple[float, float, float]]:
    """Threshold sweep for one label column: (x, y, threshold) triples.

    ROC sweeps from (0,0) to (1,1) over FPR/TPR; PR ends at recall = 1 with
    precision = prevalence.  Equal scores share a threshold step, so the
    trapezoidal ROC area reproduces the rank-statistic AUROC.
    """
    if kind not in ("roc", "pr"):
        raise ValueError(f"kind must be 'roc' or 'pr', got {kind!r}")
    truth = np.asarray(truth).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("degenerate label column: needs both classes")

    order = np.argsort(-scores, kind="mergesort")
    s_sorted = scores[order]
    # each run of equal scores is one step, thresholded at its first element
    first = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    seen = np.r_[first[1:], truth.size]       # samples at or above each step
    tp = np.cumsum(truth[order])[seen - 1]
    fp = seen - tp
    if kind == "roc":
        x, y = fp / n_neg, tp / n_pos
    else:
        x, y = tp / n_pos, tp / seen
    points = [(0.0, 0.0, float("inf"))] if kind == "roc" else []
    return points + list(zip(x.tolist(), y.tolist(), s_sorted[first].tolist()))


@dataclass
class MetricsReport:
    n_samples: int
    n_labels: int
    strict_match: float
    hamming: float
    precision: float
    recall: float
    f1: float
    auroc: float
    per_label: list[dict]

    def format(self, header_extra: str = "") -> str:
        lines = [f"samples = {self.n_samples}", f"labels = {self.n_labels}"]
        if header_extra:
            lines.append(header_extra)
        lines += [
            f"exact_match_acc = {self.strict_match:.6f}",
            f"hamming_acc = {self.hamming:.6f}",
            f"precision = {self.precision:.6f}",
            f"recall = {self.recall:.6f}",
            f"f1 = {self.f1:.6f}",
            f"auroc = {self.auroc:.6f}",
            "[per_label]",
        ]
        for row in self.per_label:
            lines.append("label {label}: tp={tp} fp={fp} fn={fn} tn={tn} "
                         "auroc={auroc}".format(**row))
        return "\n".join(lines) + "\n"


def compute_report(pred, truth, scores) -> MetricsReport:
    pred, truth = _check_pair(pred, truth)
    counts = _confusions(pred, truth)
    p, r, f = _macro(counts)
    aucs = [label_auroc(np.asarray(scores)[:, j], truth[:, j])
            for j in range(truth.shape[1])]
    per_label = [{"label": j, "tp": tp, "fp": fp, "fn": fn, "tn": tn,
                  "auroc": "n/a" if a is None else f"{a:.6f}"}
                 for j, ((tp, fp, fn, tn), a) in enumerate(zip(counts, aucs))]
    return MetricsReport(
        n_samples=truth.shape[0], n_labels=truth.shape[1],
        strict_match=strict_match_accuracy(pred, truth),
        hamming=hamming_accuracy(pred, truth),
        precision=p, recall=r, f1=f,
        auroc=auroc(aucs), per_label=per_label)


def write_curves_csv(path, scores, truth, kind: str):
    """Per-label curve points as CSV with header label,threshold,x,y."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    lines = ["label,threshold,x,y"]
    for j in range(truth.shape[1]):
        col = truth[:, j]
        if col.sum() == 0 or col.sum() == col.size:
            continue  # degenerate label: skipped
        for x, y, thr in curve_points(scores[:, j], col, kind):
            lines.append(f"{j},{thr!r},{x!r},{y!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
