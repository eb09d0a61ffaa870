"""Command-line surface: `hymad generate | train | evaluate`.

Exit codes are a stable contract: 0 success, 2 config validation, 3 IO,
4 checkpoint/dataset compatibility, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from hymad import __version__
from hymad import datagen, train as T
from hymad.config import load_config
from hymad.errors import CompatibilityError, ConfigError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPAT = 4
EXIT_NUMERIC = 5


def _write_run_manifest(out: Path, command: str, cfg_digest: str,
                        dataset_digest: str, artifacts: list[str]):
    lines = [f"command = {command}",
             f"tool_version = {__version__}",
             f"config_digest = {cfg_digest}",
             f"dataset_digest = {dataset_digest}",
             f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S')}",
             "[artifacts]"]
    lines += artifacts
    (out / "run_manifest.txt").write_text("\n".join(lines) + "\n")


def cmd_generate(args) -> int:
    ds_cfg, _, _ = load_config(args.config)
    if args.seed is not None:
        ds_cfg = replace(ds_cfg, seed=args.seed)
    out = Path(args.out)
    ds = datagen.build_dataset(ds_cfg)
    datagen.save_dataset(ds, out)
    counts: dict[tuple[str, str], int] = {}
    for r in ds.records:
        counts[(r.combo, r.split)] = counts.get((r.combo, r.split), 0) + 1
    for (combo, split), n in sorted(counts.items()):
        print(f"{combo:<16}{split:<8}{n}")
    print(f"manifest digest: {datagen.manifest_digest(out)}")
    return EXIT_OK


def cmd_train(args) -> int:
    _, model_cfg, train_cfg = load_config(args.config)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed).validate()
    if args.fusion is not None:
        model_cfg = replace(model_cfg, fusion_mode=args.fusion)
    data_dir = Path(args.dataset)
    dataset = datagen.load_dataset(data_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, record = T.train(dataset, model_cfg, train_cfg, out_dir=out)
    report = T.evaluate(dataset, "val", params, model_cfg, out_dir=out)
    _write_run_manifest(out, "train", model_cfg.digest(),
                        datagen.manifest_digest(data_dir),
                        [f"fusion_mode = {model_cfg.fusion_mode}",
                         "best.ckpt", "final.ckpt", "run_record.txt",
                         "report_val.txt"])
    print(f"final val exact-match {report.strict_match:.4f}, "
          f"hamming {report.hamming:.4f}, f1 {report.f1:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.ablate and (args.checkpoint is not None
                        or args.threshold is not None):
        raise ConfigError("--ablate trains its own models and takes no "
                          "--checkpoint or --threshold")
    if not args.ablate and args.checkpoint is None:
        raise ConfigError("--checkpoint is required unless --ablate is given")
    _, model_cfg, train_cfg = load_config(args.config)
    data_dir = Path(args.dataset)
    dataset = datagen.load_dataset(data_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.ablate:
        results = T.run_ablations(dataset, model_cfg, train_cfg)
        table = T.format_ablation_table(results)
        (out / "ablation_table.txt").write_text(table)
        print(table, end="")
        return EXIT_OK

    params = T.load_checkpoint(args.checkpoint, model_cfg)
    T.evaluate(dataset, args.split, params, model_cfg,
               threshold=args.threshold, out_dir=out)
    _write_run_manifest(out, "evaluate", model_cfg.digest(),
                        datagen.manifest_digest(data_dir),
                        [f"report_{args.split}.txt", f"roc_{args.split}.csv",
                         f"pr_{args.split}.csv"])
    # the terminal gets the report file as written, threshold included
    print((out / f"report_{args.split}.txt").read_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hymad",
        description="Multi-activity seismic event detector: dataset generation, "
                    "training, and evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fusion", choices=list(T.M.FUSION_MODES), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint (or run ablations)")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=list(datagen.SPLITS))
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--ablate", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
