import hashlib
from dataclasses import replace

import numpy as np
import pytest

from hymad import cli
from hymad.config import load_config
from hymad.errors import ConfigError

MICRO_CONFIG = """\
[dataset]
n_per_class = 10
seed = 1

[model]
n_filters = 4
kernel_len = 17
branches = 1
pool_stride = 400
rnn_hidden = 8
d_model = 8
mlp_hidden = 16

[train]
lr = 0.01
batch_size = 8
max_epochs = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(MICRO_CONFIG)
    rc = cli.main(["generate", "--config", str(cfg),
                   "--out", str(root / "data")])
    assert rc == 0
    return root, cfg


def test_generate_writes_shards_and_manifest(workspace):
    root, _ = workspace
    data = root / "data"
    assert (data / "manifest").exists()
    for split in ("train", "val", "test"):
        assert (data / f"{split}.bin").exists()


def test_train_and_evaluate_happy_path(workspace, capsys):
    root, cfg = workspace
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(root / "data"),
                   "--out", str(root / "run")])
    assert rc == 0
    assert "exact-match" in capsys.readouterr().out
    assert (root / "run" / "final.ckpt").exists()
    assert (root / "run" / "run_manifest.txt").exists()

    rc = cli.main(["evaluate", "--config", str(cfg),
                   "--checkpoint", str(root / "run" / "final.ckpt"),
                   "--dataset", str(root / "data"),
                   "--out", str(root / "eval")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "strict match" in out or "exact" in out or "hamming" in out
    assert (root / "eval" / "roc_test.csv").exists()
    assert (root / "eval" / "pr_test.csv").exists()


def test_fusion_override_recorded(workspace):
    root, cfg = workspace
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(root / "data"),
                   "--fusion", "freq_only",
                   "--out", str(root / "run_freq")])
    assert rc == 0
    text = (root / "run_freq" / "run_manifest.txt").read_text()
    assert "fusion_mode = freq_only" in text


@pytest.fixture
def nan_data(workspace, tmp_path):
    """The workspace dataset saved again, with valid digests, after one train
    waveform was set to NaN."""
    from hymad import datagen as D
    ds = D.load_dataset(workspace[0] / "data")
    ds.x["train"] = ds.x["train"].copy()
    ds.x["train"][0] = np.nan
    return D.save_dataset(ds, tmp_path / "nan")


@pytest.mark.parametrize("batch_size", [8, 64])
def test_nan_waveform_stops_training_at_its_microbatch(
        workspace, nan_data, monkeypatch, busy_workers, batch_size):
    # at B=64 the one step over all 56 train rows runs as microbatches on
    # the step pool, which run side by side, so the NaN microbatch need not
    # be the last forward; no optimizer step may follow a failed microbatch,
    # and train raises that microbatch's error once no worker is running
    from hymad import compute, datagen as D, model as M, train as T
    from hymad.errors import NumericError
    events, errors = [], []
    forward = M.forward_batch

    def watched(x, cfg, params):
        events.append("nan" if np.isnan(x).any() else "forward")
        try:
            return forward(x, cfg, params)
        except NumericError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(M, "forward_batch", watched)
    monkeypatch.setattr(T.AdamW, "step", lambda self: events.append("step"))
    _, model_cfg, train_cfg = load_config(workspace[1])
    ds = D.load_dataset(nan_data)
    with pytest.raises(NumericError) as raised:
        T.train(ds, model_cfg, replace(train_cfg, batch_size=batch_size))
    assert busy_workers() == 0
    assert events.count("nan") == 1 and len(errors) == 1
    assert raised.value is errors[0]
    if batch_size == 8:
        assert events[-1] == "nan"
    else:
        assert 64 > len(ds.split_records("train")) > compute.CHUNK_ROWS
        assert "step" not in events


def test_nan_waveform_is_numeric_error(workspace, nan_data, tmp_path, capsys):
    rc = cli.main(["train", "--config", str(workspace[1]),
                   "--dataset", str(nan_data), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("numeric error: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_nan_test_waveform_is_numeric_error_naming_its_rows(
        workspace, tmp_path, capsys):
    from hymad import datagen as D, model as M, train as T
    root, cfg = workspace
    ds = D.load_dataset(root / "data")
    ds.x["test"] = ds.x["test"].copy()
    ds.x["test"][2] = np.nan
    data = D.save_dataset(ds, tmp_path / "nan")
    model_cfg = load_config(cfg)[1]
    ckpt = tmp_path / "m.ckpt"
    T.save_checkpoint(ckpt, model_cfg, M.init_params(model_cfg, seed=0))
    rc = cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--dataset", str(data), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("numeric error: ")
    assert err.strip().endswith(f" at rows 0-{len(ds.x['test']) - 1}")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("edit", ["nan_bias", "huge_head"])
def test_non_finite_logits_are_numeric_error_naming_their_rows(
        workspace, tmp_path, capsys, edit):
    # a NaN output bias, or head weights that overflow the logits: scores
    # from such logits are no scores, so evaluate reports no metrics
    from hymad import model as M, train as T
    root, cfg = workspace
    model_cfg = load_config(cfg)[1]
    params = M.init_params(model_cfg, seed=0)
    if edit == "nan_bias":
        params["mlp.b1"].data[1] = np.nan
    else:
        for name in ("mlp.w0", "mlp.w1"):
            params[name].data *= 1e307
    ckpt = tmp_path / "m.ckpt"
    T.save_checkpoint(ckpt, model_cfg, params)
    rc = cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--dataset", str(root / "data"), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("numeric error: ")
    assert " at rows 0-" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "e" / "report_test.txt").exists()


def test_huge_learning_rate_is_one_line_numeric_error(
        workspace, tmp_path, capsys, monkeypatch):
    # the first step moves every parameter by about lr, so the next
    # forward overflows; that is a numeric error naming its rows, not a
    # numpy warning followed by a NaN further on
    root, cfg = workspace
    monkeypatch.setenv("HYMAD_TRAIN_LR", "1e300")
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(root / "data"),
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("numeric error: overflow encountered")
    assert "at epoch 0, batch ids [" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_missing_dataset_is_io_error(workspace, capsys):
    root, cfg = workspace
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(root / "nowhere"),
                   "--out", str(root / "x")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_corrupt_shard_is_compat_error(workspace, tmp_path, capsys):
    root, cfg = workspace
    import shutil
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    blob = bytearray((data / "train.bin").read_bytes())
    blob[100] ^= 0xFF
    (data / "train.bin").write_bytes(bytes(blob))
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(data), "--out", str(tmp_path / "x")])
    assert rc == 4
    capsys.readouterr()


def test_checkpoint_config_mismatch_is_compat_error(workspace, tmp_path, capsys):
    root, cfg = workspace
    other = tmp_path / "other.ini"
    other.write_text(MICRO_CONFIG.replace("n_filters = 4", "n_filters = 8"))
    rc = cli.main(["evaluate", "--config", str(other),
                   "--checkpoint", str(root / "run" / "final.ckpt"),
                   "--dataset", str(root / "data"),
                   "--out", str(tmp_path / "e")])
    assert rc == 4
    capsys.readouterr()


@pytest.mark.parametrize("threshold", ["1.5", "0.0"])
def test_evaluate_threshold_outside_unit_interval_is_config_error(
        workspace, tmp_path, capsys, threshold):
    from hymad import model as M, train as T
    root, cfg = workspace
    ckpt = tmp_path / "m.ckpt"
    model_cfg = load_config(cfg)[1]
    T.save_checkpoint(ckpt, model_cfg, M.init_params(model_cfg, seed=0))
    rc = cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--dataset", str(root / "data"), "--out", str(tmp_path / "e"),
                   "--threshold", threshold])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "threshold" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "e" / "report_test.txt").exists()


def test_evaluate_prints_the_report_file_with_its_threshold(
        workspace, tmp_path, capsys):
    from hymad import model as M, train as T
    root, cfg = workspace
    ckpt = tmp_path / "m.ckpt"
    model_cfg = load_config(cfg)[1]
    T.save_checkpoint(ckpt, model_cfg, M.init_params(model_cfg, seed=0))
    rc = cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--dataset", str(root / "data"), "--out", str(tmp_path / "e"),
                   "--threshold", "0.3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (tmp_path / "e" / "report_test.txt").read_text()
    assert "split = test\nthreshold = 0.3\n" in out


def test_bad_config_value_is_config_error(workspace, tmp_path, capsys):
    root, _ = workspace
    bad = tmp_path / "bad.ini"
    bad.write_text(MICRO_CONFIG + "\n[extra]\nfoo = 1\n")
    rc = cli.main(["generate", "--config", str(bad),
                   "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_not_utf8_is_one_line_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(MICRO_CONFIG.encode() + b"\n# \xff\n")
    rc = cli.main(["train", "--config", str(bad), "--dataset", str(tmp_path),
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: cannot parse config {bad}: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# fixed in the code: the sample rate, the Hamming window, the low-band filter
# init, the label count and AdamW's betas and eps
REMOVED_KEYS = {"model": {"fs": "8000.0", "window": "hamming",
                          "init_strategy": "low-band", "n_labels": "4"},
                "train": {"betas": "0.9,0.999", "eps": "1e-08"}}


def _assert_one_line_error_for(err, key):
    # a key fixed in the code is refused as unknown, whatever its value
    section, name = key.split(".")
    if name in REMOVED_KEYS[section]:
        assert err == f"config error: unknown key {key}\n"
    else:
        assert err.startswith(f"config error: {key}")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("POOL_STRIDE", "0"), ("N_HEADS", "0"), ("BRANCHES", "0"),
    ("BRANCHES", "4"), ("N_FILTERS", "0"), ("D_MODEL", "-2"),
    ("RNN_HIDDEN", "0"), ("MLP_HIDDEN", "16,0"), ("MLP_HIDDEN", "32.0"),
    ("MLP_HIDDEN", "1e1"), ("BRANCH_LENS", "65.0,129,251"),
    ("INIT_STRATEGY", "bogus"), ("FS", "0"), ("FS", "1.5")])
def test_bad_model_size_is_one_line_config_error(
        workspace, tmp_path, capsys, monkeypatch, key, value):
    _, cfg = workspace
    monkeypatch.setenv(f"HYMAD_MODEL_{key}", value)
    rc = cli.main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    _assert_one_line_error_for(err, f"model.{key.lower()}")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("key, value", [
    ("BETAS", "1.0,0.999"), ("LR", "nan"), ("LR", "inf"), ("LR", "-1"),
    ("WEIGHT_DECAY", "nan"), ("WEIGHT_DECAY", "-0.1"), ("EPS", "0"),
    ("EPS", "-1"), ("EPS", "inf")])
def test_bad_train_value_is_one_line_config_error(
        workspace, tmp_path, capsys, monkeypatch, key, value):
    root, cfg = workspace
    monkeypatch.setenv(f"HYMAD_TRAIN_{key}", value)
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(root / "data"),
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    _assert_one_line_error_for(err, f"train.{key.lower()}")
    assert not (tmp_path / "run" / "final.ckpt").exists()


@pytest.mark.parametrize("env", [
    {"KERNEL_LEN": "-1"}, {"BRANCHES": "2", "BRANCH_LENS": "17,-1,251"},
], ids=["kernel_len", "branch_lens"])
def test_plain_kernel_below_one_is_one_line_config_error(
        workspace, tmp_path, capsys, monkeypatch, env):
    # the plain frontend's free kernels may be 1 long, but no shorter; a
    # negative odd length used to reach the initializer's square root
    root, cfg = workspace
    monkeypatch.setenv("HYMAD_MODEL_FRONTEND", "plain")
    for key, value in env.items():
        monkeypatch.setenv(f"HYMAD_MODEL_{key}", value)
    rc = cli.main(["train", "--config", str(cfg),
                   "--dataset", str(root / "data"),
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    field = list(env)[-1].lower()          # the length's own field
    assert err == f"config error: model.{field} must be odd and >= 1, got -1\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("source", ["ini", "env"])
@pytest.mark.parametrize("key", [f"{s}.{k}" for s, keys in REMOVED_KEYS.items()
                                 for k in keys])
def test_removed_key_is_one_line_unknown_key_error(
        workspace, tmp_path, capsys, monkeypatch, key, source):
    # even each key's one former value is refused
    _, cfg = workspace
    section, name = key.split(".")
    value = REMOVED_KEYS[section][name]
    if source == "env":
        monkeypatch.setenv(f"HYMAD_{section.upper()}_{name.upper()}", value)
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(MICRO_CONFIG.replace(
            f"[{section}]\n", f"[{section}]\n{name} = {value}\n"))
    rc = cli.main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"config error: unknown key {key}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv, env", [
    (["generate", "--seed", "-1"], {}),
    (["train", "--seed", "-1"], {}),
    (["generate"], {"HYMAD_DATASET_SCALE_HI": "inf"}),
    (["generate"], {"HYMAD_DATASET_SCALE_HI": "1e308"})],
    ids=["generate-seed", "train-seed", "infinite-scale", "overflowing-scale"])
def test_value_that_would_crash_the_run_is_one_line_config_error(
        workspace, tmp_path, capsys, monkeypatch, argv, env):
    root, cfg = workspace
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if argv[0] == "train":
        argv = argv + ["--dataset", str(root / "data")]
    rc = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_package_version_matches_pyproject():
    # a run manifest's tool_version names the checkpoint format it wrote
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path
    from hymad import __version__
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


def test_unknown_key_names_field(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[dataset]\nbananas = 3\n")
    with pytest.raises(ConfigError, match="dataset.bananas"):
        load_config(bad)


def test_bad_ratios_is_config_error(tmp_path, capsys):
    # a sum other than 1, a NaN ratio, or infinite ratios whose sum is NaN
    bad = tmp_path / "bad.ini"
    for ratios in ("0.8,0.3,0.1", "nan,0.5,0.5", "1e999,-1e999,1.0"):
        bad.write_text(f"[dataset]\nn_per_class = 10\nratios = {ratios}\n")
        rc = cli.main(["generate", "--config", str(bad),
                       "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and "dataset.ratios" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "d").exists()


def test_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[dataset]\nn_per_class = 10\n")
    monkeypatch.setenv("HYMAD_DATASET_N_PER_CLASS", "33")
    ds_cfg, _, _ = load_config(cfg, env=dict(__import__("os").environ))
    assert ds_cfg.n_per_class == 33


def test_flag_beats_file_seed(workspace, tmp_path):
    root, cfg = workspace
    rc = cli.main(["generate", "--config", str(cfg), "--seed", "5",
                   "--out", str(tmp_path / "d5")])
    assert rc == 0
    from hymad import datagen as D
    loaded = D.load_dataset(tmp_path / "d5")
    assert loaded.config.seed == 5


def test_evaluate_without_checkpoint_is_config_error(workspace, tmp_path, capsys):
    root, cfg = workspace
    rc = cli.main(["evaluate", "--config", str(cfg),
                   "--dataset", str(root / "data"),
                   "--out", str(tmp_path / "e")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--checkpoint", "missing.ckpt"],
                                   ["--threshold", "0.5"],
                                   ["--threshold", "5"]])
def test_ablate_with_checkpoint_or_threshold_is_config_error(
        workspace, tmp_path, capsys, extra):
    root, cfg = workspace
    rc = cli.main(["evaluate", "--config", str(cfg), "--ablate", *extra,
                   "--dataset", str(root / "data"), "--out", str(tmp_path / "abl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: --ablate")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "abl" / "ablation_table.txt").exists()


def test_evaluate_without_checkpoint_or_ablate_fails_before_io(
        workspace, tmp_path, capsys):
    # the missing model is reported before the dataset is read: a dataset
    # that does not exist still gives the config error, and no --out appears
    _, cfg = workspace
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--config", str(cfg),
                   "--dataset", str(tmp_path / "no-such-data"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: --checkpoint is required")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_ablate_reports_four_variants(workspace, capsys):
    root, cfg = workspace
    rc = cli.main(["evaluate", "--config", str(cfg), "--ablate",
                   "--dataset", str(root / "data"),
                   "--out", str(root / "abl")])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("full", "concat", "freq_only", "single_scale"):
        assert name in out
    assert (root / "abl" / "ablation_table.txt").exists()


# -- malformed inputs: exit code 4 with a one-line message ------------------------

def _flip_byte(data, ckpt):
    blob = bytearray((data / "test.bin").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (data / "test.bin").write_bytes(bytes(blob))


def _truncate_shard(data, ckpt):
    (data / "test.bin").write_bytes((data / "test.bin").read_bytes()[:-100])


def _malform_manifest_line(data, ckpt):
    text = (data / "manifest").read_text().replace("[samples]\n0\t", "[samples]\nx\t")
    (data / "manifest").write_text(text)


def _truncate_checkpoint(data, ckpt):
    ckpt.write_bytes(ckpt.read_bytes()[:-8])


def _pad_checkpoint(data, ckpt):
    ckpt.write_bytes(ckpt.read_bytes() + b"\x00")


def _set_first_name_byte(value):
    # magic, version, digest, count and the first name's length come first
    def damage(data, ckpt):
        blob = bytearray(ckpt.read_bytes())
        blob[4 + 4 + 32 + 4 + 2] = value
        ckpt.write_bytes(bytes(blob))
    return damage


def _flip_manifest_label_bit(data, ckpt):
    lines = (data / "manifest").read_text().splitlines(keepends=True)
    at = lines.index("[samples]\n") + 1
    fields = lines[at].split("\t")
    fields[3] = "10"[int(fields[3][0])] + fields[3][1:]
    lines[at] = "\t".join(fields)
    (data / "manifest").write_text("".join(lines))


def _set_checkpoint_version_1(data, ckpt):
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])


def _cut_manifest_newline(data, ckpt):
    (data / "manifest").write_bytes((data / "manifest").read_bytes()[:-1])


def _edit_manifest_record(data, ckpt):
    lines = (data / "manifest").read_text().splitlines(keepends=True)
    at = lines.index("[samples]\n") + 1
    fields = lines[at].split("\t")
    fields[1] = "vehicle" if fields[1] != "vehicle" else "human"
    fields[5] = str(int(fields[5]) + 7)
    lines[at] = "\t".join(fields)
    (data / "manifest").write_text("".join(lines))


def _leak_train_source_into_test_mixture(data, ckpt):
    # the records' digest is recomputed, so only the split rule refuses it
    head, body = (data / "manifest").read_text().split("[samples]\n")
    rows = [line.split("\t") for line in body.splitlines()]
    train = next(r[0] for r in rows if r[4] == r[0] and r[2] == "train")
    mix = next(r for r in rows if "+" in r[1] and r[2] == "test")
    mix[4] = f"{train},{mix[4].split(',')[1]}"
    body = "".join("\t".join(r) + "\n" for r in rows)
    digest = hashlib.sha256(body.encode()).hexdigest()
    head = "".join(f"records = {digest}\n" if line.startswith("records = ")
                   else line for line in head.splitlines(keepends=True))
    (data / "manifest").write_text(head + "[samples]\n" + body)


@pytest.mark.parametrize("damage, extra", [
    (_flip_byte, []), (_flip_byte, ["--ablate"]), (_truncate_shard, []),
    (_malform_manifest_line, []), (_truncate_checkpoint, []), (_pad_checkpoint, []),
    (_set_first_name_byte(0xFF), []), (_set_first_name_byte(ord("z")), []),
    (_flip_manifest_label_bit, []), (_cut_manifest_newline, []),
    (_edit_manifest_record, []), (_set_checkpoint_version_1, []),
    (_leak_train_source_into_test_mixture, []),
], ids=["flipped-shard-byte", "flipped-shard-byte-ablate", "truncated-shard",
        "malformed-manifest-line", "truncated-checkpoint", "trailing-checkpoint-bytes",
        "undecodable-checkpoint-name", "unknown-checkpoint-name",
        "flipped-manifest-label-bit", "manifest-without-final-newline",
        "edited-manifest-record", "version-1-checkpoint",
        "train-source-in-test-mixture"])
def test_malformed_input_is_compat_error(workspace, tmp_path, capsys, damage, extra):
    import shutil
    from hymad import model as M, train as T
    root, cfg = workspace
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    ckpt = tmp_path / "m.ckpt"
    model_cfg = load_config(cfg)[1]
    T.save_checkpoint(ckpt, model_cfg, M.init_params(model_cfg, seed=0))
    damage(data, ckpt)
    # --ablate trains its own models and takes no checkpoint
    model_args = extra if "--ablate" in extra else ["--checkpoint", str(ckpt)]
    rc = cli.main(["evaluate", "--config", str(cfg), *model_args,
                   "--dataset", str(data), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("compatibility error: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_evaluate_missing_dataset_is_io_error(workspace, tmp_path, capsys):
    root, cfg = workspace
    rc = cli.main(["evaluate", "--config", str(cfg), "--ablate",
                   "--dataset", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "e")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("io error: ")
