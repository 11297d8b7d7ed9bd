"""Command-line interface behavior via main(argv)."""

import inspect
import json
import struct
import warnings
import zlib
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from visarch import TrainConfig, build, checkpoint_load, checkpoint_save, cli, config_to_json, preset
from visarch.checkpoint import MAGIC, VERSION
from visarch.cli import main
from visarch.train import gradcheck, make_optimizer


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_config(tmp_path, name="cfg.json", **kw):
    base = dict(preset="visformer_ti-micro", epochs=1, batch_size=16,
                optimizer="adamw", base_lr=0.02, weight_decay=0.01, seed=3,
                data_classes=4, data_per_class=4, data_seed=2)
    base.update(kw)
    path = tmp_path / name
    path.write_text(config_to_json(TrainConfig(**base)))
    return path


def save_resumable(path, cfg_path, model_preset=None, **extra):
    """A checkpoint that `train --resume` accepts after epoch 0 of the config
    at cfg_path, with the given extra entries overridden; model_preset, if
    given, replaces the model the config names."""
    cfg = TrainConfig.from_json(cfg_path.read_text())
    model = build(preset(model_preset or cfg.preset), seed=cfg.seed)
    optim = make_optimizer(cfg, model.params)
    extra = {"seed": cfg.seed, "epoch": 0, "train_config": asdict(cfg),
             **optim.scalar_state(), **extra}
    checkpoint_save(model, path, extra=extra, extra_tensors=optim.state_tensors())
    return path


class TestDescribe:
    def test_param_total_footer(self, capsys):
        rc, out, _ = run(capsys, "describe", "visformer_ti")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "visformer_ti: 224x224 input, 1000 classes"
        assert lines[-1] == "total params ≈ 10.3M"

    def test_uniform_transformer_blocks(self, capsys):
        rc, out, _ = run(capsys, "describe", "deit_s")
        assert rc == 0
        block_rows = [l.split() for l in out.splitlines() if l.startswith("s0.b")]
        assert len(block_rows) == 12
        # identical shape and parameter columns across all twelve blocks
        assert len({tuple(r[1:]) for r in block_rows}) == 1
        assert block_rows[0][-1] == "1,774,464"

    def test_unknown_preset_exits_2(self, capsys):
        rc, out, err = run(capsys, "describe", "nosuch")
        assert rc == 2
        assert "nosuch" in err
        assert out == ""


class TestFlops:
    def test_json_totals_match_rows(self, capsys):
        rc, out, _ = run(capsys, "flops", "visformer_s", "--json")
        assert rc == 0
        d = json.loads(out)
        assert d["total_macs"] == 4879380480
        assert sum(r["macs"] for r in d["rows"]) == d["total_macs"]
        assert sum(r["params"] for r in d["rows"]) == d["total_params"]

    def test_text_report_footer(self, capsys):
        rc, out, _ = run(capsys, "flops", "visformer_ti")
        assert rc == 0
        assert "total MACs ≈ 1.27G" in out
        assert "total params ≈ 10.3M" in out

    def test_indivisible_resolution_exits_1(self, capsys):
        rc, _, err = run(capsys, "flops", "visformer_s", "--res", "225")
        assert rc == 1
        assert "divisible" in err

    @pytest.mark.parametrize("res", ["-16", "0"])
    def test_resolution_below_1_exits_1(self, capsys, res):
        # deit_s has no stem, whose window rule would catch it
        rc, out, err = run(capsys, "flops", "deit_s", "--res", res)
        assert (rc, out) == (1, "")
        assert f"input resolution must be >= 1, got {res}" in err


class TestFp16:
    def test_single_mode_json(self, capsys):
        rc, out, _ = run(capsys, "fp16", "--mode", "standard", "--d", "64",
                         "--mag", "32", "--json")
        assert rc == 0
        d = json.loads(out)
        assert d["overflow_count"] == 16
        assert d["softmax_valid"] is False

    def test_all_modes_text(self, capsys):
        rc, out, _ = run(capsys, "fp16", "--d", "64", "--mag", "32")
        assert rc == 0
        for mode in ("standard", "prenorm", "fullnorm", "pb_relax"):
            assert mode in out
        assert "softmax_divergence" in out

    @pytest.mark.parametrize("argv,named", [
        (["--d", "0"], "--d"),
        (["--tokens", "0"], "--tokens"),
        (["--tokens", "-1"], "--tokens"),
        (["--mag", "nan"], "--mag must be finite, got nan"),
        (["--mag", "inf"], "--mag must be finite, got inf"),
        (["--mag", "nan", "--random"], "--mag must be finite, and so must 2*|mag| with --random"),
        (["--mag", "inf", "--random"], "--mag must be finite, and so must 2*|mag| with --random"),
        (["--mag", "1e308", "--random"], "2*|mag| with --random, got 1e+308"),
        (["--mag=-1e308", "--random"], "2*|mag| with --random, got -1e+308"),
        (["--random", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["d0", "tokens0", "tokens-1", "mag-nan", "mag-inf", "mag-nan-random",
            "mag-inf-random", "mag-1e308-random", "mag--1e308-random", "seed-1"])
    def test_bad_input_exits_1_naming_it(self, capsys, argv, named):
        rc, out, err = run(capsys, "fp16", "--d", "4", "--mag", "1", *argv)
        assert rc == 1
        assert out == ""
        assert named in err

    def test_random_draw_is_seeded_and_within_mag(self, capsys):
        argv = ("fp16", "--d", "8", "--mag", "3", "--tokens", "5", "--random", "--json")
        rc, first, _ = run(capsys, *argv, "--seed", "3")
        assert rc == 0
        assert run(capsys, *argv, "--seed", "3")[1] == first
        assert run(capsys, *argv, "--seed", "4")[1] != first
        for mode, report in json.loads(first).items():
            assert 0.0 < report["max_abs_input"] <= 3.0, mode

    def test_overflowed_rows_exit_0_without_warning(self, capsys):
        # before, --mag 1e308 warned of pb_relax's inf - inf row shift, and
        # --mag 1e200 reported a max_abs_logit of 0.0 beside 16 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "fp16", "--d", "4", "--mag", "1e308")
            assert rc == 0 and err == "" and "max_abs_logit  : None" in out
            rc, out, _ = run(capsys, "fp16", "--d", "4", "--mag", "1e200", "--json")
        assert rc == 0
        for mode, report in json.loads(out).items():
            assert report["overflow_count"] == 16 and report["max_abs_logit"] is None, mode


class TestTrain:
    def test_end_to_end_writes_checkpoint(self, capsys, tmp_path):
        cfg_path = write_config(tmp_path)
        out_path = tmp_path / "m.vsfm"
        rc, out, _ = run(capsys, "train", "--config", str(cfg_path),
                         "--out", str(out_path))
        assert rc == 0
        assert "epoch   0" in out
        assert f"saved {out_path}" in out
        loaded = checkpoint_load(out_path)
        assert loaded["extra"]["epoch"] == 0
        assert TrainConfig(**loaded["extra"]["train_config"]) is not None
        assert any(p.startswith("optim.") for p in loaded["tensors"])

    def test_resume_rejects_other_config(self, capsys, tmp_path):
        cfg_path = write_config(tmp_path)
        out_path = tmp_path / "m.vsfm"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        other = write_config(tmp_path, name="other.json", epochs=2)
        rc = main(["train", "--config", str(other), "--resume", str(out_path)])
        cap = capsys.readouterr()
        assert rc == 1
        assert "different train config" in cap.err
        assert "epochs 2 != 1" in cap.err

    def test_interrupt_resume_matches_straight_run(self, capsys, tmp_path):
        cfg_path = write_config(tmp_path, epochs=2)
        straight = tmp_path / "straight.vsfm"
        resumed = tmp_path / "resumed.vsfm"
        assert main(["train", "--config", str(cfg_path), "--out", str(straight)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(resumed),
                     "--stop-after", "1"]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(resumed),
                     "--resume", str(resumed)]) == 0
        capsys.readouterr()
        assert straight.read_bytes() == resumed.read_bytes()

    def test_negative_stop_after_exits_1(self, capsys, tmp_path):
        out_path = tmp_path / "m.vsfm"
        rc, out, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                           "--out", str(out_path), "--stop-after", "-3")
        assert rc == 1
        assert "stop_after must be >= 0, got -3" in err
        assert out == "" and not out_path.exists()

    def test_config_that_is_not_utf8_exits_1_naming_it(self, capsys, tmp_path):
        # before, the text-mode read raised a UnicodeDecodeError naming no config
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"preset": "\xff"}')
        rc, out, err = run(capsys, "train", "--config", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: bad train config: not JSON: 'utf-8' codec can't decode")

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = json.loads(config_to_json(TrainConfig("visformer_ti-micro", 1, 4)))
        path.write_text(json.dumps(dict(cfg, lr=0.1)))
        rc, _, err = run(capsys, "train", "--config", str(path))
        assert rc == 1
        assert "unexpected keyword argument 'lr'" in err

    @pytest.mark.parametrize("field,value", [("epochs", 1.5), ("flip", "no")])
    def test_mistyped_config_value_exits_1(self, capsys, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        cfg = json.loads(config_to_json(TrainConfig("visformer_ti-micro", 1, 4)))
        path.write_text(json.dumps(dict(cfg, **{field: value})))
        rc, out, err = run(capsys, "train", "--config", str(path),
                           "--out", str(tmp_path / "m.vsfm"))
        assert rc == 1
        assert f"{field} must be" in err
        assert out == ""

    def test_resume_from_model_only_checkpoint_exits_1(self, capsys, tmp_path):
        model_only = tmp_path / "m.vsfm"
        checkpoint_save(build(preset("visformer_ti-micro"), seed=0), model_only,
                        extra={"seed": 0})
        rc, _, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                         "--resume", str(model_only))
        assert rc == 1
        assert "no train_config" in err

    def test_resume_from_malformed_header_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.vsfm"
        body = MAGIC + struct.pack("<HI", VERSION, 2) + b"{}"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc, _, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                         "--resume", str(bad))
        assert rc == 1
        assert "'config'" in err

    @pytest.mark.parametrize("field,value", [("input_resolution", "32"), ("norm", "group"),
                                             ("conv_block_style", "bogus"), ("num_classes", 0)])
    def test_resume_with_config_that_cannot_run_exits_1(self, capsys, tmp_path, field, value):
        cfg_path = write_config(tmp_path, epochs=2)
        blob = save_resumable(tmp_path / "good.vsfm", cfg_path).read_bytes()
        n = struct.unpack_from("<I", blob, 6)[0]
        head = json.loads(blob[10:10 + n])
        head["config"][field] = value
        raw = json.dumps(head).encode()
        body = MAGIC + struct.pack("<HI", VERSION, len(raw)) + raw + blob[10 + n:-4]
        bad = tmp_path / "bad.vsfm"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc, out, err = run(capsys, "train", "--config", str(cfg_path), "--resume", str(bad))
        assert rc == 1
        assert "'config'" in err and field in err
        assert out == ""

    @pytest.mark.parametrize("key,value", [("seed", [1]), ("epoch", "0")])
    def test_resume_with_mistyped_scalar_exits_1(self, capsys, tmp_path, key, value):
        cfg_path = write_config(tmp_path, epochs=2)
        bad = save_resumable(tmp_path / "bad.vsfm", cfg_path, **{key: value})
        rc, out, err = run(capsys, "train", "--config", str(cfg_path),
                           "--resume", str(bad), "--out", str(tmp_path / "out.vsfm"))
        assert rc == 1
        assert f"'{key}'" in err
        assert out == ""

    def test_resume_of_another_presets_model_exits_1(self, capsys, tmp_path):
        cfg_path = write_config(tmp_path, epochs=2)
        bad = save_resumable(tmp_path / "bad.vsfm", cfg_path, model_preset="deit_s-micro")
        out_path = tmp_path / "out.vsfm"
        rc, out, err = run(capsys, "train", "--config", str(cfg_path),
                           "--resume", str(bad), "--out", str(out_path))
        assert rc == 1
        assert "'deit_s-micro'" in err and "'visformer_ti-micro'" in err
        assert out == "" and not out_path.exists()

    def test_missing_config_exits_1(self, capsys, tmp_path):
        rc, _, err = run(capsys, "train", "--config", str(tmp_path / "nope.json"))
        assert rc == 1
        assert "error" in err


class TestGradcheck:
    def test_pass_exit_zero(self, capsys):
        rc, out, _ = run(capsys, "gradcheck", "net1-micro", "--samples", "1")
        assert rc == 0
        assert out.strip().endswith("PASS")
        assert "worst" in out

    def test_defaults_are_the_librarys(self, capsys, monkeypatch):
        # the audit benchmark calls train.gradcheck(name) as the CLI's default run
        calls = []

        def record(*args, **kwargs):
            calls.append(inspect.signature(gradcheck).bind(*args, **kwargs).arguments)
            return SimpleNamespace(table=lambda: "PASS", passed=True)

        monkeypatch.setattr(cli, "gradcheck", record)
        rc, out, _ = run(capsys, "gradcheck", "deit_s-micro")
        assert rc == 0 and out == "PASS\n"
        defaults = {name: p.default for name, p in inspect.signature(gradcheck).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        (passed,) = calls
        assert passed.pop("preset_name") == "deit_s-micro"
        assert passed == {name: defaults[name] for name in passed}

    @pytest.mark.parametrize("flag,value,named", [
        ("--samples", "0", "samples_per_param"),
        ("--tolerance", "nan", "tolerance"),
    ])
    def test_check_that_compares_nothing_exits_1(self, capsys, flag, value, named):
        rc, out, err = run(capsys, "gradcheck", "deit_s-micro", flag, value)
        assert rc == 1
        assert out == ""
        assert named in err
