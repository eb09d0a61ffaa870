"""Compare benchmark runs of a parent commit and a change.

    # run alternating pairs, then report
    python3 perfbench/compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT --pairs 10
    # report on result files already collected (run.py stores them under
    # .perfbench/results/<workload>/)
    python3 perfbench/compare.py report PARENT_DIR CHANGE_DIR

Only untraced results count, and only the end-to-end metrics of
BENCHMARK.json.  A parent run and a change run form a pair when they share
workload and seed.  For each (workload, metric) the report gives each
side's median and quartiles and marks the pair:
  better      at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  neither, and either side's interquartile range exceeds the
              bound, unless every change run beats every parent run;
  same        otherwise.
The command exits 1 if any pair is worse, if a workload has no pairs, if a
result lacks an end-to-end metric, or if the change's runs of a workload
fail more operations than the parent's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPECS = {m["name"]: m for m in BENCH["end_to_end"]}
FIRST_SEED = 100    # pair i runs seed FIRST_SEED + i, away from the reference seed


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> untraced result record."""
    by_wl: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        r = json.loads(path.read_text())
        if r["trace"]:
            continue
        runs = by_wl.setdefault(r["workload"], {})
        if r["seed"] in runs:
            raise SystemExit(f"{directory}: two untraced runs of {r['workload']} "
                             f"with seed {r['seed']}")
        runs[r["seed"]] = r
    return by_wl


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], spec: dict) -> str:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > p3 - p1:
        return "better"
    bound = spec["bound"]
    if gap < -bound * abs(pm):
        return "worse"
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not dominates:
        return "unresolved"
    return "same"


def report(parent_dir: Path, change_dir: Path) -> int:
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':<14}{'metric':<24}{'parent q1/med/q3':>30}"
          f"{'change q1/med/q3':>30}{'wins':>8}  verdict")
    problems = []
    for wl in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(wl, {})) & set(change.get(wl, {})))
        if not seeds:
            problems.append(f"{wl}: no parent and change runs share a seed")
            continue
        p_runs = [parent[wl][s]["result"] for s in seeds]
        c_runs = [change[wl][s]["result"] for s in seeds]
        failed = [sum(r["failed"] for r in runs) for runs in (p_runs, c_runs)]
        for side, runs, n in (("parent", p_runs, failed[0]),
                              ("change", c_runs, failed[1])):
            print(f"{wl:<14}{side} operations failed {n} of "
                  f"{sum(r['attempted'] for r in runs)}")
        if failed[1] > failed[0]:
            problems.append(f"{wl}: the change fails more operations")
        for name, spec in SPECS.items():
            lacking = [s for s, r in zip(seeds * 2, p_runs + c_runs)
                       if name not in r["metrics"]]
            if lacking:
                problems.append(f"{wl}: {name} missing for seeds "
                                f"{sorted(set(lacking))}")
                continue
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(p, c, spec)
            if v == "worse":
                problems.append(f"{wl}: {name} is worse")
            sign = 1.0 if spec["better"] == "higher" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{wl:<14}{name:<24}{fmt.format(*quartiles(p)):>30}"
                  f"{fmt.format(*quartiles(c)):>30}{f'{wins}/{len(seeds)}':>8}  {v}")
    for problem in problems:
        print(f"fail: {problem}")
    return 1 if problems else 0


def run_pairs(parent_root: Path, change_root: Path, n_pairs: int,
              workloads: list[str], out: Path):
    """Alternate which side runs first; both sides of a pair share a seed."""
    for i in range(n_pairs):
        order = [("parent", parent_root), ("change", change_root)]
        if i % 2:
            order.reverse()
        seed = FIRST_SEED + i
        for wl in workloads:
            for side, root in order:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", wl,
                     "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
                     "--trace", "0"],
                    cwd=root, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if not lines:
                    raise SystemExit(f"{side} {wl} seed {seed} printed no result:"
                                     f"\n{proc.stderr}")
                record = {"workload": wl, "seed": seed, "trace": 0,
                          "result": json.loads(lines[-1])}
                target = out / side / wl
                target.mkdir(parents=True, exist_ok=True)
                (target / f"seed{seed}.json").write_text(json.dumps(record) + "\n")
                print(f"pair {i} {wl} {side} exit {proc.returncode}", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("report")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    q = sub.add_parser("pairs")
    q.add_argument("parent", type=Path, help="checkout of the parent commit")
    q.add_argument("change", type=Path, help="checkout of the change")
    q.add_argument("--pairs", type=int, default=10)
    q.add_argument("--workload", action="append",
                   default=None, choices=[w["name"] for w in BENCH["workloads"]])
    q.add_argument("--out", type=Path, default=HERE.parent / ".perfbench" / "compare",
                   help="new or empty directory for the pair results")
    args = p.parse_args(argv)
    if args.mode == "pairs":
        if args.out.exists() and any(args.out.iterdir()):
            raise SystemExit(f"{args.out} is not empty; remove it or pass --out")
        workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
        run_pairs(args.parent.resolve(), args.change.resolve(), args.pairs,
                  workloads, args.out)
        return report(args.out / "parent", args.out / "change")
    return report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
