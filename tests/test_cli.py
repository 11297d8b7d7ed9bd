"""Command-line interface behavior via main(argv)."""

import json
import struct
import zlib

import pytest

from visarch import TrainConfig, build, checkpoint_load, checkpoint_save, preset
from visarch.checkpoint import MAGIC, VERSION
from visarch.cli import main


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
    path.write_text(TrainConfig(**base).to_json())
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

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = json.loads(TrainConfig("visformer_ti-micro", 1, 4).to_json())
        path.write_text(json.dumps(dict(cfg, lr=0.1)))
        rc, _, err = run(capsys, "train", "--config", str(path))
        assert rc == 1
        assert "unexpected keyword argument 'lr'" in err

    @pytest.mark.parametrize("field,value", [("epochs", 1.5), ("flip", "no")])
    def test_mistyped_config_value_exits_1(self, capsys, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        cfg = json.loads(TrainConfig("visformer_ti-micro", 1, 4).to_json())
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
