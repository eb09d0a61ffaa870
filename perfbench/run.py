"""hymad benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload train_b128 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`.  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics, and
the span file and span summary are written under `.perfbench/trace/`.
Every result is also stored under `.perfbench/results/` for compare.py.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS reads its thread count when numpy loads, so pin it before any import.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

SRC = ROOT / "src"


def import_hymad():
    """Import hymad from this checkout's src/ only; None when it is absent."""
    if not (SRC / "hymad" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hymad
    if Path(hymad.__file__).resolve().parent != (SRC / "hymad").resolve():
        return None
    return hymad


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "hymad").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in sources:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(np),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": NPROC, "src_hymad_lines": lines}


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (reference key <workload>-tiny)")
    p.add_argument("--reference", type=Path,
                   default=Path(__file__).resolve().parent / "reference.json",
                   help="reference outputs for the reference seed")
    p.add_argument("--write-reference", type=Path, default=None,
                   help="store this run's reference outputs in the given file")
    return p.parse_args(argv)


def run_all(args, names) -> int:
    """Every workload, each in its own process; exit 1 if any check failed."""
    import subprocess

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--reference", str(args.reference)]
    if args.tiny:
        common.append("--tiny")
    if args.write_reference is not None:
        common += ["--write-reference", str(args.write_reference)]
    code = 0
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name, *common])
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    hymad = import_hymad()
    if hymad is None:
        print(f"error: no hymad package under {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads as W

    args = parse_args(argv, sorted(W.WORKLOADS) + ["all"])
    if args.workload == "all":
        return run_all(args, list(W.WORKLOADS))
    wl = W.WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    env = environment(np)
    print("env " + json.dumps(env), flush=True)

    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.time()
    run = W.Run(wl, args.seed, work, bool(args.trace))
    try:
        metrics = run.execute(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")

    if args.seed == W.REFERENCE_SEED:
        observed = run.reference_values()
        if args.write_reference is not None:
            store = json.loads(args.write_reference.read_text()) \
                if args.write_reference.is_file() else {}
            store[wl.name] = observed
            args.write_reference.write_text(json.dumps(store, indent=1) + "\n")
        store = json.loads(args.reference.read_text()) \
            if args.reference.is_file() else {}
        expected = store.get(wl.name)
        problems = ["no reference outputs stored"] if expected is None else \
            W.compare_reference(observed, expected)
        run.ops.check(not problems, "reference: " + "; ".join(problems))

    if run.tracer is not None:
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}"
        run.tracer.write_spans(trace_dir / f"{stem}.spans.jsonl")
        table = run.tracer.format_summary()
        (trace_dir / f"{stem}.summary.txt").write_text(table + "\n")
        print(table)

    for failure in run.ops.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {"correct": run.ops.failed == 0, "attempted": run.ops.attempted,
              "failed": run.ops.failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    results = out_dir / "results" / wl.name
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "started": started, "env": env,
              "result": result}
    (results / f"{started:.6f}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
