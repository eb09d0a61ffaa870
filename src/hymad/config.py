"""Structured-text (INI) run configuration with environment overrides.

Sections [dataset], [model], [train] map onto the corresponding dataclasses.
Environment variables of the form HYMAD_<SECTION>_<KEY> override file values,
and CLI flags override both.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import fields
from pathlib import Path

from hymad.datagen import DatasetConfig
from hymad.errors import ConfigError
from hymad.model import ModelConfig
from hymad.train import TrainConfig

ENV_PREFIX = "HYMAD_"


def _convert(raw: str, target_type, key: str):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is tuple:
            return tuple(float(v) if "." in v or "e" in v.lower() else int(v)
                         for v in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _populate(cls, section: str, values: dict[str, str]):
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in values.items():
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key}")
        kwargs[key] = _convert(raw, type(known[key].default), f"{section}.{key}")
    return cls(**kwargs)


def load_config(path: str | Path | None, env: dict | None = None):
    """Parse config file + env overrides into (DatasetConfig, ModelConfig, TrainConfig)."""
    parser = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            parser.read_string(path.read_text(encoding="utf-8"))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values = {s: dict(parser[s]) for s in parser.sections()}
    env = os.environ if env is None else env
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        section, _, key = rest.partition("_")
        if section in ("dataset", "model", "train"):
            values.setdefault(section, {})[key] = raw

    for section in values:
        if section not in ("dataset", "model", "train"):
            raise ConfigError(f"unknown config section [{section}]")

    ds = _populate(DatasetConfig, "dataset", values.get("dataset", {})).validate()
    mc = _populate(ModelConfig, "model", values.get("model", {})).validate()
    tc = _populate(TrainConfig, "train", values.get("train", {})).validate()
    return ds, mc, tc
