"""Training loop, optimizers, schedule, and gradient checking."""

import ctypes
import importlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import visarch.blocks as vb
import visarch.tensor as vt
from visarch import (
    CheckpointError,
    NonFiniteError,
    TrainConfig,
    build,
    cosine_lr,
    gradcheck,
    load_run,
    make_optimizer,
    preset,
    save_run,
    synth_dataset,
    train,
)
from visarch.blocks import BUFFER_INITS, LAYERS
from visarch.models import config_to_json, entry_inputs, layer_plan, model_forward, preset_names
from visarch.tensor import ParamStore, ShapeError, Tensor, cross_entropy, finite_diff_grad
from visarch.train import REFERENCE_BATCH, AdamW, SGDMomentum

vmodels = importlib.import_module("visarch.models")
vtrain = importlib.import_module("visarch.train")  # the package's `train` is the function


def tiny_dataset():
    return synth_dataset(4, 8, 32, seed=2)


def tiny_config(**kw):
    base = dict(preset="visformer_ti-micro", epochs=3, batch_size=16,
                optimizer="adamw", base_lr=0.02, weight_decay=0.01, seed=3,
                data_classes=4, data_per_class=8, data_seed=2)
    base.update(kw)
    return TrainConfig(**base)


def param_bytes(model):
    return b"".join(t.data.tobytes() for _, t in model.params.items())


def model_bytes(model):
    """A model's parameters and buffers, as bytes."""
    return param_bytes(model) + b"".join(a.tobytes() for _, a in sorted(model.buffers.items()))


def resume_state_of(result):
    """The resume_state a checkpoint of a stopped train() result gives."""
    return {"model": result.model, "tensors": result.optimizer.state_tensors(),
            "scalars": {"epoch": result.last_epoch, "train_config": asdict(result.config),
                        **result.optimizer.scalar_state()}}


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config(flip=True, crop_pad=2)
        assert TrainConfig.from_json(config_to_json(cfg)) == cfg

    @pytest.mark.parametrize("kw", [
        dict(epochs=0),
        dict(batch_size=0),
        dict(base_lr=-0.1),
        dict(lr_floor=-1e-6),
        dict(optimizer="sgd"),
        dict(momentum=float("nan")),
        dict(weight_decay=-0.01),
        dict(base_lr=float("nan")),
        dict(weight_decay=float("inf")),
        dict(epochs=1.5),
        dict(batch_size=True),
        dict(seed="3"),
        dict(seed=np.int64(3)),
        dict(flip="no"),
        dict(flip=1),
        dict(base_lr="0.02"),
        dict(momentum=None),
        dict(preset=3),
        dict(seed=-1),
        dict(data_seed=-1),
        dict(crop_pad=-1),
        dict(momentum=1.0),
        dict(lr_floor=0.5, base_lr=0.1),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            tiny_config(**kw)

    @pytest.mark.parametrize("text,match", [
        ('{"preset": "visformer_ti-micro", "epochs": 1, "batch_size": 4, "lr": 0.1}',
         "unexpected keyword argument 'lr'"),
        ('{"preset": "visformer_ti-micro", "epochs": 1}', "missing .*'batch_size'"),
        ('{"preset": "visformer_ti-micro", "epochs": "1", "batch_size": 4}', "bad train config"),
        ('[1, 2]', "must be a mapping"),
        ('{"preset": "visformer_ti-micro", "epochs": 1.5, "batch_size": 4}',
         "epochs must be an integer, got 1.5"),
        ('{"preset": "visformer_ti-micro", "epochs": 1, "batch_size": 4, "flip": "no"}',
         "flip must be true or false, got 'no'"),
        ('{"preset": "visformer_ti-micro", "epochs": 1, "batch_size": 4, "weight_decay": "0"}',
         "weight_decay must be a number"),
    ], ids=["unknown-key", "missing-key", "mistyped-value", "not-object", "float-epochs",
            "string-flip", "string-float"])
    def test_from_json_rejects_malformed(self, text, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig.from_json(text)

    def test_zero_lr_is_valid(self):
        cfg = tiny_config(base_lr=0.0, lr_floor=0.0)
        assert cfg.base_lr == 0.0


class TestCosine:
    def test_endpoints(self):
        cfg = tiny_config(epochs=10, batch_size=64, base_lr=0.4, lr_floor=1e-3)
        scale = 64 / REFERENCE_BATCH
        assert cosine_lr(cfg, 0) == pytest.approx(0.4 * scale)
        assert cosine_lr(cfg, 9) == pytest.approx(1e-3 * scale)

    def test_monotone_non_increasing(self):
        cfg = tiny_config(epochs=17)
        lrs = [cosine_lr(cfg, e) for e in range(17)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_batch_scaling(self):
        a = tiny_config(batch_size=32)
        b = tiny_config(batch_size=64)
        assert cosine_lr(b, 0) == pytest.approx(2 * cosine_lr(a, 0))

    def test_single_epoch_uses_peak(self):
        cfg = tiny_config(epochs=1, batch_size=512, base_lr=0.3)
        assert cosine_lr(cfg, 0) == pytest.approx(0.3)


class TestOptimizers:
    def make_store(self):
        store = ParamStore()
        t = store.add("w", Tensor(np.array([1.0, -2.0])))
        t.grad = np.array([0.5, -1.0])
        return store, t

    def test_sgd_momentum_closed_form(self):
        store, t = self.make_store()
        opt = SGDMomentum(store, momentum=0.9, weight_decay=0.1)
        p0, g = t.data.copy(), t.grad.copy()
        lr = 0.1

        v1 = g + 0.1 * p0
        p1 = p0 - lr * v1
        opt.step(lr)
        assert np.allclose(t.data, p1)

        v2 = 0.9 * v1 + (g + 0.1 * p1)
        opt.step(lr)
        assert np.allclose(t.data, p1 - lr * v2)

    def test_adamw_closed_form(self):
        store, t = self.make_store()
        opt = AdamW(store, weight_decay=0.01)
        p0, g = t.data.copy(), t.grad.copy()
        lr, eps = 0.1, 1e-8

        # first step: bias correction makes m_hat = g, v_hat = g^2
        p1 = p0 - lr * (g / (np.abs(g) + eps) + 0.01 * p0)
        opt.step(lr)
        assert np.allclose(t.data, p1)

        m2 = (0.9 * 0.1 + 0.1) * g
        v2 = (0.999 * 0.001 + 0.001) * g * g
        mh = m2 / (1 - 0.9 ** 2)
        vh = v2 / (1 - 0.999 ** 2)
        p2 = p1 - lr * (mh / (np.sqrt(vh) + eps) + 0.01 * p1)
        opt.step(lr)
        assert np.allclose(t.data, p2)

    def test_decay_acts_without_gradient_signal(self):
        # decoupled decay shrinks weights even when the gradient is zero
        store = ParamStore()
        t = store.add("w", Tensor(np.array([4.0])))
        t.grad = np.zeros(1)
        AdamW(store, weight_decay=0.5).step(0.1)
        assert t.data[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5))

    def test_make_optimizer_dispatch(self):
        store, _ = self.make_store()
        assert isinstance(make_optimizer(tiny_config(optimizer="sgd_momentum"), store),
                          SGDMomentum)
        assert isinstance(make_optimizer(tiny_config(optimizer="adamw"), store), AdamW)

    def test_state_tensor_paths_are_namespaced(self):
        store, _ = self.make_store()
        assert set(SGDMomentum(store).state_tensors()) == {"optim.w.v"}
        assert set(AdamW(store).state_tensors()) == {"optim.w.m", "optim.w.v"}
        assert AdamW(store).scalar_state() == {"adam_steps": 0}


class TestOptimizerState:
    """SGD and AdamW keep per-parameter state in named slots, saved as optim.<path>.<slot>."""

    def make(self, cls):
        store = ParamStore()
        store.add("a.w", Tensor(np.array([[1.0, -2.0]])))
        store.add("b", Tensor(np.array([0.5])))
        for _, t in store.items():
            t.grad = np.ones_like(t.data)
        opt = cls(store)
        opt.step(0.1)
        return opt

    @pytest.mark.parametrize("cls,slots", [(SGDMomentum, ("v",)), (AdamW, ("m", "v"))])
    def test_round_trip(self, cls, slots):
        opt = self.make(cls)
        saved = opt.state_tensors()
        assert set(saved) == {f"optim.{p}.{s}" for p in ("a.w", "b") for s in slots}
        fresh = cls(opt.store, state={"tensors": saved, "scalars": opt.scalar_state()})
        assert fresh.scalar_state() == opt.scalar_state()
        for key, arr in fresh.state_tensors().items():
            assert arr.tobytes() == saved[key].tobytes()
            # the optimizer adopts the state's arrays; train() hands it a copy
            # (TestLoop.test_resume_leaves_its_state_unchanged)
            assert arr is saved[key]

    @pytest.mark.parametrize("cls", [SGDMomentum, AdamW])
    @pytest.mark.parametrize("edit", ["missing", "misshaped", "nan", "inf"])
    def test_bad_tensor_names_the_key(self, cls, edit):
        opt = self.make(cls)
        saved = opt.state_tensors()
        if edit == "missing":
            del saved["optim.a.w.v"]
        elif edit == "misshaped":
            saved["optim.a.w.v"] = np.zeros(3)
        else:
            saved["optim.a.w.v"] = np.array([[1.0, float(edit)]])
        with pytest.raises(CheckpointError, match=r"'optim\.a\.w\.v'"):
            cls(opt.store, state={"tensors": saved, "scalars": opt.scalar_state()})

    def test_adamw_second_moment_must_not_be_negative(self):
        # before, the next step's sqrt(v) made the parameter NaN
        opt = self.make(AdamW)
        saved = opt.state_tensors()
        saved["optim.b.v"] = np.array([-1e-6])
        with pytest.raises(CheckpointError, match=r"'optim\.b\.v' holds a negative value"):
            AdamW(opt.store, state={"tensors": saved, "scalars": opt.scalar_state()})

    def test_sgd_momentum_may_be_negative(self):
        opt = self.make(SGDMomentum)
        saved = opt.state_tensors()
        saved["optim.b.v"] = np.array([-1.0])
        fresh = SGDMomentum(opt.store, state={"tensors": saved, "scalars": {}})
        assert fresh.v["b"][0] == -1.0

    def test_another_optimizers_slot_is_rejected(self):
        opt = self.make(AdamW)
        with pytest.raises(CheckpointError, match=r"checkpoint has 'optim\.a\.w\.m', "
                                                  "which sgd_momentum does not keep"):
            SGDMomentum(opt.store, state={"tensors": opt.state_tensors(),
                                          "scalars": opt.scalar_state()})

    def test_adamw_needs_its_step_count(self):
        opt = self.make(AdamW)
        with pytest.raises(CheckpointError, match="adam_steps"):
            AdamW(opt.store, state={"tensors": opt.state_tensors(), "scalars": {}})

    @pytest.mark.parametrize("steps", [None, "1", 1.0, 1.5, True, [1]])
    def test_adamw_step_count_must_be_an_integer(self, steps):
        opt = self.make(AdamW)
        with pytest.raises(CheckpointError, match="'adam_steps'"):
            AdamW(opt.store, state={"tensors": opt.state_tensors(),
                                    "scalars": {"adam_steps": steps}})

    def test_adamw_step_count_must_not_be_negative(self):
        opt = self.make(AdamW)
        with pytest.raises(CheckpointError, match="'adam_steps' must be >= 0, got -4"):
            AdamW(opt.store, state={"tensors": opt.state_tensors(),
                                    "scalars": {"adam_steps": -4}})


class TestLoop:
    def test_loss_decreases(self):
        r = train(tiny_config(epochs=4), tiny_dataset())
        assert r.losses[-1] < r.losses[0]
        assert r.accuracies[-1] > r.accuracies[0]
        assert r.last_epoch == 3

    def test_zero_lr_leaves_params_bit_identical(self):
        cfg = tiny_config(preset="deit_s-micro", epochs=1,
                          optimizer="sgd_momentum", base_lr=0.0, lr_floor=0.0)
        r = train(cfg, tiny_dataset())
        fresh = build(preset("deit_s-micro"), seed=cfg.seed)
        assert param_bytes(r.model) == param_bytes(fresh)

    def test_repeat_runs_identical(self):
        a = train(tiny_config(), tiny_dataset())
        b = train(tiny_config(), tiny_dataset())
        assert a.losses == b.losses
        assert a.accuracies == b.accuracies
        assert param_bytes(a.model) == param_bytes(b.model)

    @pytest.mark.parametrize("optimizer", TrainConfig.CHOICES["optimizer"])
    def test_interrupt_and_resume_matches_straight_run(self, optimizer):
        cfg = tiny_config(optimizer=optimizer, base_lr=0.05)
        ds = tiny_dataset()
        full = train(cfg, ds)

        partial = train(cfg, ds, stop_after=1)
        assert len(partial.losses) == 1
        resumed = train(cfg, ds, resume_state=resume_state_of(partial))
        assert partial.losses + resumed.losses == full.losses
        assert param_bytes(resumed.model) == param_bytes(full.model)
        for k, v in resumed.model.buffers.items():
            assert v.tobytes() == full.model.buffers[k].tobytes()

    def test_interrupt_and_resume_through_files_matches_straight_run(self, tmp_path):
        cfg = tiny_config(base_lr=0.05)
        ds = tiny_dataset()
        save_run(train(cfg, ds), tmp_path / "straight.vsfm")
        save_run(train(cfg, ds, stop_after=1), tmp_path / "resumed.vsfm")
        resumed = train(cfg, ds, resume_state=load_run(tmp_path / "resumed.vsfm"))
        save_run(resumed, tmp_path / "resumed.vsfm")
        assert (tmp_path / "resumed.vsfm").read_bytes() == (tmp_path / "straight.vsfm").read_bytes()

    @pytest.mark.parametrize("optimizer", TrainConfig.CHOICES["optimizer"])
    def test_resume_leaves_its_state_unchanged(self, optimizer, tmp_path):
        # before, train() trained the state's model in place, so a second
        # resume from one load_run started from the first one's final weights
        cfg = tiny_config(optimizer=optimizer, base_lr=0.05)
        ds = tiny_dataset()
        save_run(train(cfg, ds, stop_after=1), tmp_path / "run.vsfm")
        state = load_run(tmp_path / "run.vsfm")

        def state_bytes():
            return model_bytes(state["model"]) + b"".join(
                a.tobytes() for _, a in sorted(state["tensors"].items()))

        before = state_bytes()
        first = train(cfg, ds, resume_state=state)
        second = train(cfg, ds, resume_state=state)
        assert len(first.losses) == 2
        assert first.losses == second.losses
        assert model_bytes(first.model) == model_bytes(second.model)
        assert state_bytes() == before

    @pytest.mark.parametrize("stored,match", [
        (asdict(tiny_config(base_lr=0.5, flip=True, seed=9)),
         r"different train config \(this one vs the checkpoint's\): "
         r"base_lr 0\.02 != 0\.5, seed 3 != 9, flip False != True$"),
        (None, "holds no train_config, so it cannot be resumed"),
        (dict(asdict(tiny_config()), epochs=1.5), "'train_config' is malformed.*epochs"),
    ], ids=["another", "missing", "malformed"])
    def test_resume_under_another_train_config_raises(self, stored, match):
        # before, train() resumed under any train config; only the CLI compared them
        ds = tiny_dataset()
        state = resume_state_of(train(tiny_config(), ds, stop_after=0))
        if stored is None:
            del state["scalars"]["train_config"]
        else:
            state["scalars"]["train_config"] = stored
        with pytest.raises(CheckpointError, match=match):
            train(tiny_config(), ds, resume_state=state)

    @pytest.mark.parametrize("saved,resumed", permutations(TrainConfig.CHOICES["optimizer"], 2))
    def test_resume_under_another_optimizer_raises(self, saved, resumed):
        # before, sgd_momentum took AdamW's second moment as its momentum and ran on
        ds = tiny_dataset()
        state = resume_state_of(train(tiny_config(optimizer=saved), ds, stop_after=1))
        with pytest.raises(CheckpointError, match=f"optimizer {resumed} != {saved}"):
            train(tiny_config(optimizer=resumed), ds, resume_state=state)
        # a stored train_config that names the resumed optimizer still leaves
        # the other optimizer's slots, which the optimizer itself rejects
        state["scalars"]["train_config"] = asdict(tiny_config(optimizer=resumed))
        with pytest.raises(CheckpointError, match=r"'optim\.[^']+'"):
            train(tiny_config(optimizer=resumed), ds, resume_state=state)

    @pytest.mark.parametrize("epoch", ["0", 0.5, True, None])
    def test_resume_epoch_must_be_an_integer(self, epoch):
        with pytest.raises(CheckpointError, match="'epoch'"):
            self.resume_at(epoch)

    @staticmethod
    def resume_at(epoch):
        """Resume a fresh 2-epoch run whose checkpoint says it finished epoch."""
        cfg = tiny_config(epochs=2)
        model = build(preset(cfg.preset), seed=cfg.seed)
        optim = make_optimizer(cfg, model.params)
        state = {"model": model, "tensors": optim.state_tensors(),
                 "scalars": {"epoch": epoch, "train_config": asdict(cfg), **optim.scalar_state()}}
        return train(cfg, tiny_dataset(), resume_state=state)

    @pytest.mark.parametrize("epoch,match", [
        (-3, "'epoch' must be >= -1, got -3"),
        (-2, "'epoch' must be >= -1, got -2"),
        (2, r"'epoch' must be in -1\.\.1"),
        (5, r"'epoch' must be in -1\.\.1"),
    ], ids=["-3", "-2", "2", "5"])
    def test_resume_epoch_must_be_in_range(self, epoch, match):
        with pytest.raises(CheckpointError, match=match):
            self.resume_at(epoch)

    def test_resume_of_another_presets_model_raises(self):
        cfg = tiny_config(epochs=2)
        model = build(preset("deit_s-micro"), seed=cfg.seed)
        optim = make_optimizer(cfg, model.params)
        state = {"model": model, "tensors": optim.state_tensors(),
                 "scalars": {"epoch": 0, "train_config": asdict(cfg), **optim.scalar_state()}}
        with pytest.raises(CheckpointError, match="'deit_s-micro' model.*'visformer_ti-micro'"):
            train(cfg, tiny_dataset(), resume_state=state)

    def test_resume_after_the_last_epoch_runs_none(self):
        r = self.resume_at(1)
        assert (r.losses, r.last_epoch) == ([], 1)

    def test_stop_after_zero_returns_initial_state(self):
        cfg = tiny_config()
        r = train(cfg, tiny_dataset(), stop_after=0)
        assert (r.losses, r.last_epoch) == ([], -1)
        assert param_bytes(r.model) == param_bytes(build(preset(cfg.preset), seed=cfg.seed))

    @pytest.mark.parametrize("stop_after,rule", [
        (-3, ">= 0, got -3"), (1.5, "an integer, got 1.5"), (True, "an integer, got True"),
        (np.int64(-1), ">= 0, got -1"), ("2", "an integer, got '2'"), (2.0, "an integer, got 2.0")])
    def test_negative_stop_after_rejected(self, stop_after, rule):
        with pytest.raises(ValueError, match=f"stop_after must be {rule}"):
            train(tiny_config(), tiny_dataset(), stop_after=stop_after)

    def test_rejects_dataset_with_too_many_classes(self):
        ds = synth_dataset(12, 1, 32, seed=0)
        with pytest.raises(ValueError, match="classes"):
            train(tiny_config(), ds)

    def test_divergence_aborts_with_layer_path(self):
        cfg = tiny_config(epochs=1, optimizer="sgd_momentum", base_lr=1e24)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="s0.embed"):
            train(cfg, tiny_dataset())

    @pytest.mark.parametrize("name,entry", [("visformer_ti-micro", "s2.embed"),
                                            ("net4-micro", "s2.b0"),
                                            ("resnet50_shape-micro", "s3.b0")])
    def test_a_one_sample_batch_under_batch_norm_is_rejected_before_any_step(
            self, monkeypatch, name, entry):
        # 50 samples in batches of 7 leave a last batch of 1, whose 1x1 maps give
        # batch norm one value per channel; before, the run raised a ShapeError
        # naming no layer after 7 steps
        steps = []
        monkeypatch.setattr(vtrain, "backward", steps.append)
        config = TrainConfig(name, epochs=2, batch_size=7, data_per_class=5)
        with pytest.raises(ValueError, match=re.escape(
                f"batch_size 7 over 50 samples gives a smallest batch of 1, but the batch norm "
                f"at '{entry}' on 1x1 maps needs more than one value per channel")):
            train(config)
        assert steps == []

    @staticmethod
    def counted_steps(monkeypatch) -> list:
        steps = []
        step = SGDMomentum.step
        monkeypatch.setattr(SGDMomentum, "step", lambda self, lr: steps.append(lr) or step(self, lr))
        return steps

    def test_the_smallest_batch_trains_where_the_datasets_maps_allow(self, monkeypatch):
        # at 64 the last batch of 1 sees 2x2 maps at s3.b0; before, the check planned
        # the config's 32 (1x1 maps) and rejected the run
        steps = self.counted_steps(monkeypatch)
        config = TrainConfig("resnet50_shape-micro", epochs=1, batch_size=7, data_per_class=5)
        result = train(config, synth_dataset(10, 5, 64, 7))
        assert len(steps) == 8 and np.isfinite(result.losses[0])

    def test_the_smallest_batch_is_rejected_where_the_datasets_maps_are_1x1(self, monkeypatch):
        # at 32 the full-size model's s3.b0 maps are 1x1; before, the check planned
        # the config's 224 (7x7 maps), and the run raised from batch_norm after 7 steps
        steps = self.counted_steps(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                "batch_size 7 over 50 samples gives a smallest batch of 1, but the batch norm "
                "at 's3.b0' on 1x1 maps needs more than one value per channel")):
            train(TrainConfig("resnet50_shape", epochs=1, batch_size=7),
                  synth_dataset(10, 5, 32, 7))
        assert steps == []

    def test_a_one_sample_batch_trains_under_layer_norm(self):
        result = train(TrainConfig("deit_s-micro", epochs=1, batch_size=7, data_per_class=5))
        assert len(result.losses) == 1 and np.isfinite(result.losses[0])

    @pytest.mark.parametrize("call", [
        lambda: model_forward(build(preset("visformer_ti-micro")),
                              np.zeros((1, 3, 32, 32), np.float32), training=True),
        lambda: gradcheck("visformer_ti-micro", batch=1),
    ], ids=["forward", "gradcheck"])
    def test_batch_norm_on_one_value_per_channel_names_the_layer(self, call):
        with pytest.raises(ShapeError, match=re.escape(
                "needs more than one value per channel, got a batch of 1 on 1x1 maps at "
                "'visformer_ti-micro.s2.embed'")):
            call()

    def test_log_callback_sees_each_epoch(self):
        lines = []
        train(tiny_config(epochs=2), tiny_dataset(), log=lines.append)
        assert len(lines) == 2
        assert "loss" in lines[0] and "lr" in lines[0]

    def test_a_step_frees_its_graph_while_logits_and_loss_stay_bound(self):
        # train()'s step at the benchmark's batch: what stays held is the
        # gradients, one per parameter, and little else; a backward that kept
        # the graph left about half of the forward's traced memory held here
        model = build(preset("visformer_ti-micro"), seed=0)
        optim = AdamW(model.params, 0.01)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, 50)
        tracemalloc.start()
        try:
            logits = model_forward(model, x, training=True)
            loss = cross_entropy(logits, y)
            model.params.zero_grads()
            vt.backward(loss)
            optim.step(0.01)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert logits.data.shape == (50, 10) and loss.data.shape == ()
        assert held <= 1.1 * sum(t.data.nbytes for _, t in model.params.items())


class TestGradcheck:
    def test_cli_defaults_fail_at_the_benchmarks_known_entries(self):
        # the audit workload counts these as known failures; any other entry
        # failing, or one of these passing, means the gradients moved
        expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                               / "expected.json").read_text())
        known = {tuple(e) for e in expected["gradcheck_known_failures"]}
        assert len(known) == 6
        for name in ("resnet50_shape-micro", "deit_s-micro"):
            rep = gradcheck(name)
            assert {(name, e.path, e.index) for e in rep.failures} == \
                {k for k in known if k[0] == name}

    def test_micro_preset_passes(self):
        rep = gradcheck("net1-micro", samples_per_param=1, batch=2)
        assert rep.passed
        assert rep.worst.rel < 1e-4
        assert rep.checked > 50
        assert rep.table().endswith("PASS")

    def test_flags_corrupted_backward(self, monkeypatch):
        real = vt.gelu

        def crooked(x):
            out = real(x)
            if out._backward is not None:
                inner = out._backward
                out._backward = lambda g: tuple(
                    None if p is None else 1.5 * p for p in inner(g))
            return out

        monkeypatch.setattr(vt, "gelu", crooked)
        rep = gradcheck("net1-micro", samples_per_param=1, batch=2)
        assert not rep.passed
        assert rep.failures
        assert "FAIL" in rep.table()
        worst = max(rep.failures, key=lambda e: e.rel)
        assert worst.rel > 0.01

    def test_probes_leave_the_batch_norm_buffers_alone(self, monkeypatch):
        # before, each probe's run of its own entry took batch norm's ungrouped
        # path, which wrote the running buffers
        at_workers(monkeypatch, 1)
        built, analytic = [], []
        build_model, fork_map = vmodels.build, vtrain._fork_map
        monkeypatch.setattr(vmodels, "build", lambda *a, **kw: (
            built.append(build_model(*a, **kw)) or built[-1]))

        def probes(fn, items, workers):  # runs once the analytic pass is done
            analytic.append({p: a.copy() for p, a in built[0].buffers.items()})
            return fork_map(fn, items, workers)

        monkeypatch.setattr(vtrain, "_fork_map", probes)
        gradcheck("resnet50_shape-micro", samples_per_param=1, batch=2)
        buffers = built[0].buffers
        assert len(built) == 1 and analytic[0].keys() == buffers.keys()
        assert all(np.array_equal(analytic[0][p], a) for p, a in buffers.items())

    @pytest.mark.parametrize("name,value", [
        ("samples_per_param", 0), ("samples_per_param", -1), ("samples_per_param", 1.5),
        ("samples_per_param", True), ("batch", 0), ("batch", -2), ("batch", 2.5), ("batch", True),
        ("tolerance", 0.0), ("tolerance", -1e-4), ("tolerance", float("nan")),
        ("tolerance", float("inf")), ("tolerance", "x"), ("tolerance", None),
        ("tolerance", True), ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_arguments_that_check_nothing(self, name, value):
        with pytest.raises(ValueError, match=name):
            gradcheck("deit_s-micro", **{name: value})


def probed_slot(entry, config):
    """The parameter a test probes in a plan entry: its relative-position table,
    unless that has one offset only (over one token it shifts a softmax row
    evenly, so its gradient is 0), else its first parameter; None for an entry
    without any."""
    params = [s for s in LAYERS[entry.kind].params(entry, config) if s.init not in BUFFER_INITS]
    tables = [s for s in params if s.path.endswith(".relpos") and s.shape[0] > 1]
    return (tables + params + [None])[0]


class TestResumedProbes:
    # deit_s: cls and pos entries; resnet50_shape: stem, pool and strided
    # bottlenecks; visformer_v2_ti: relative position bias
    @pytest.mark.parametrize("name", ["deit_s-micro", "resnet50_shape-micro",
                                      "visformer_v2_ti-micro"])
    def test_probe_resumed_at_its_entry_equals_whole_forward_probe(self, name):
        # two probes per entry, so the rest of the plan runs on a stack of two
        config = preset(name)
        model = build(config, seed=0, dtype=np.float64)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3, 32, 32))
        y = rng.integers(0, config.num_classes, 4)
        plan = layer_plan(config)
        inputs = entry_inputs(model, plan, Tensor(x), True)[:-1]

        def whole():  # restores no buffer: train-mode outputs read none
            return cross_entropy(model_forward(model, x, training=True), y)

        probed = []
        for k, e in enumerate(plan):
            slot = probed_slot(e, config)
            if slot is None:
                continue
            size = int(np.prod(slot.shape))
            probes = [(slot.path, size // 2), (slot.path, size // 3)]
            resumed = vtrain._entry_slopes(model, plan, k, inputs[k], y, probes, 1e-6)
            full = [finite_diff_grad(whole, model.params, path, i, h=1e-6) for path, i in probes]
            assert resumed == full, (slot.path, resumed, full)
            probed.append(full[0])
        assert len(probed) >= 15 and np.count_nonzero(probed) == len(probed)

    def test_each_entry_runs_once_before_the_first_probe(self, monkeypatch):
        # one forward gives the analytic gradients and every probe's input
        class FirstProbe(Exception):
            pass

        def first_probe(*args, **kwargs):
            raise FirstProbe

        runs = []
        attention = vb.attention_block_forward
        monkeypatch.setattr(vb, "attention_block_forward",
                            lambda *args: runs.append(args[4]) or attention(*args))
        monkeypatch.setattr(vtrain, "_entry_slopes", first_probe)
        with pytest.raises(FirstProbe):
            gradcheck("deit_s-micro")
        assert sorted(runs) == sorted(f"s0.b{j}" for j in range(12))

    def test_the_rest_of_the_plan_runs_once_per_entry_and_round(self, monkeypatch):
        at_workers(monkeypatch, 1)
        runs, rounds = [], []  # (first prefix, length) of each slice run grouped; (entry, probes)
        run_plan, slopes = vmodels.run_plan, vtrain._entry_slopes
        monkeypatch.setattr(vmodels, "run_plan", lambda model, plan, *a: (
            vt._GROUP[0] and runs.append((plan[0].prefix if plan else None, len(plan)))
        ) or run_plan(model, plan, *a))
        monkeypatch.setattr(vtrain, "_entry_slopes", lambda model, plan, k, x, y, probes, h: (
            rounds.append((k, len(probes))) or slopes(model, plan, k, x, y, probes, h)))
        rep = gradcheck("deit_s-micro")
        config = preset("deit_s-micro")
        plan = layer_plan(config)
        # each round runs entry k alone per probe and sign, then plan[k + 1:] once
        prefixes = [e.prefix for e in plan] + [None]
        assert runs == [run for k, n in rounds for run in
                        [(prefixes[k], 1)] * (2 * n) + [(prefixes[k + 1], len(plan) - k - 1)]]
        entries = {k for k, e in enumerate(plan) if probed_slot(e, config) is not None}
        assert {k for k, _ in rounds} == entries and len(rounds) <= 3 * len(entries)
        assert sum(n for k, n in rounds) >= rep.checked > 10 * len(rounds)


class TestStackedForward:
    """The premise of _entry_slopes: under tensor._grouped, a forward of P stacked
    batches gives each batch the bits of its own forward, at every plan entry."""

    @staticmethod
    def check(name, stacks, batch, monkeypatch=None, tile_images=None):
        config = preset(name)
        model = build(config, seed=0, dtype=np.float64)
        plan = layer_plan(config)
        xs = np.random.default_rng(5).normal(size=(stacks, batch, 3, 32, 32))
        if tile_images is not None:  # k x k conv tiles smaller than a group
            monkeypatch.setattr(vt, "_TILE_BYTES", tile_images * 3 * 49 * 16 * 16 * 8)
        with vt.no_grad():
            alone = [entry_inputs(model, plan, Tensor(x), True) for x in xs]
            with vt._grouped(batch):
                stacked = entry_inputs(model, plan, Tensor(xs.reshape(-1, 3, 32, 32)), True)
        for k, got in enumerate(stacked):
            want = np.concatenate([a[k].data for a in alone])
            assert np.array_equal(got.data, want), (name, k, plan[min(k, len(plan) - 1)].prefix)

    @pytest.mark.parametrize("name", [n for n in preset_names() if n.endswith("-micro")])
    def test_every_family(self, name):
        self.check(name, 3, 2)

    def test_a_stack_of_192_rows(self):
        # deit_s-micro's head GEMM picks another dgemm kernel at 192 rows
        self.check("deit_s-micro", 96, 2)

    @pytest.mark.parametrize("tile_images", [0, 2], ids=["1-image-tiles", "2-stem-images"])
    def test_conv_tiles_smaller_than_a_group(self, monkeypatch, tile_images):
        # resnet50_shape-micro's stem is 3 x 49 x 16 x 16 im2col values per image
        self.check("resnet50_shape-micro", 2, 3, monkeypatch, tile_images)


def at_workers(monkeypatch, n):
    """gradcheck's tasks spread over n workers (1: run here), whatever the CPU count."""
    monkeypatch.setattr(vtrain, "_probe_workers", lambda tasks: min(n, tasks))


forks = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                           reason="the probe workers are forked")


@forks
class TestProbeWorkers:
    """Tasks in forked workers give the serial loop's report, or its exception.
    A task is one plan entry's probes, evaluated by _entry_slopes."""

    # deit_s: cls, pos and attention entries; resnet50_shape: known failures at
    # the CLI defaults, and probes retried at every step size
    @pytest.mark.parametrize("name", ["deit_s-micro", "resnet50_shape-micro"])
    def test_report_does_not_depend_on_the_worker_count(self, monkeypatch, name):
        here = []  # the probes evaluated in this process
        real = vtrain._entry_slopes
        monkeypatch.setattr(vtrain, "_entry_slopes", lambda model, plan, k, x, y, probes, h: (
            here.extend(probes) or real(model, plan, k, x, y, probes, h)))
        reports = []
        for n in (1, 2, 3):
            here.clear()
            at_workers(monkeypatch, n)
            reports.append(asdict(gradcheck(name, samples_per_param=1, batch=2)))
            assert not multiprocessing.active_children()
            if n == 1:
                assert len(here) >= reports[-1]["checked"]
            else:
                assert here == []  # each task ran in a forked copy of this process
        assert reports[0] == reports[1] == reports[2]

    def test_failures_keep_the_probe_order(self, monkeypatch):
        # every probe gets a made-up slope after a pause that varies by entry, so
        # the workers finish out of order and nearly every entry fails
        def made_up(model, plan, k, x, y, probes, h):
            time.sleep(1e-3 * (k % 3))
            return [float(index % 7) for path, index in probes]

        monkeypatch.setattr(vtrain, "_entry_slopes", made_up)
        reports = []
        for n in (1, 2):
            at_workers(monkeypatch, n)
            reports.append(asdict(gradcheck("deit_s-micro", samples_per_param=1, batch=2)))
        assert reports[0] == reports[1]
        assert len(reports[0]["failures"]) > 100
        paths = [e["path"] for e in reports[0]["failures"]]
        assert paths == sorted(paths)  # the store's path order

    def test_a_probe_error_reaches_the_caller_as_in_the_serial_loop(self, monkeypatch):
        # the probes of two blocks raise; the first in probe order (the store's
        # path order: cls, final_norm, head, s0.b0, s0.b1, s0.b10, ...) must win
        real = vtrain._entry_slopes

        def slopes(model, plan, k, x, y, probes, h):
            path, index = probes[0]
            if path.startswith(("s0.b3.", "s0.b1.")):
                raise NonFiniteError(f"non-finite loss probing {path}[{index}] at h {h:g}")
            return real(model, plan, k, x, y, probes, h)

        monkeypatch.setattr(vtrain, "_entry_slopes", slopes)
        errors = []
        for n in (1, 2):
            at_workers(monkeypatch, n)
            with pytest.raises(NonFiniteError) as info:
                gradcheck("deit_s-micro", samples_per_param=1, batch=2)
            errors.append(str(info.value))
            assert not multiprocessing.active_children()
        assert errors[0] == errors[1]
        assert errors[0].startswith("non-finite loss probing s0.b1.")

    def test_a_killed_worker_leaves_its_probes_to_the_caller(self, monkeypatch):
        # a multiprocessing.Pool would wait forever for the killed worker's task
        caller = os.getpid()

        def made_up(model, plan, k, x, y, probes, h):
            if ("s0.b1.mlp.fc1.w" in {path for path, _ in probes}
                    and os.getpid() != caller):
                os.kill(os.getpid(), signal.SIGKILL)
            return [float(index % 7) for path, index in probes]

        monkeypatch.setattr(vtrain, "_entry_slopes", made_up)
        reports = []
        for n in (1, 2):
            at_workers(monkeypatch, n)
            reports.append(asdict(gradcheck("net1-micro", samples_per_param=1, batch=2)))
            assert not multiprocessing.active_children()
        assert reports[0] == reports[1]

    def test_a_daemon_process_runs_its_probes_itself(self, monkeypatch):
        # a daemon process, such as a pool worker calling gradcheck, may not have children
        monkeypatch.setattr(vtrain, "_entry_slopes",
                            lambda model, plan, k, x, y, probes, h: [0.0] * len(probes))
        at_workers(monkeypatch, 2)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            rep = pool.apply(gradcheck, ("net1-micro",), dict(samples_per_param=1, batch=2))
        finally:
            pool.terminate()
            pool.join()
        assert rep.checked > 50

    def test_another_thread_keeps_the_probes_here(self, monkeypatch):
        # a forked child would inherit that thread's locks as they stand
        here = []
        monkeypatch.setattr(vtrain, "_entry_slopes", lambda model, plan, k, x, y, probes, h: (
            here.extend(probes) or [0.0] * len(probes)))
        at_workers(monkeypatch, 2)
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            rep = gradcheck("net1-micro", samples_per_param=1, batch=2)
        finally:
            release.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()
        assert len(here) >= rep.checked > 50


SECOND_FILL_FAULTS = """
import importlib, json, os, resource
import numpy as np
vtrain = importlib.import_module("visarch.train")

def second_fill_faults(_):
    # (this process's id, its minor faults over the second of two passes); with
    # numpy's huge-page advice off, a fill faults on every fresh 4 KiB page
    np._core.multiarray._set_madvise_hugepage(False)

    def one_pass():
        a = np.empty(1 << 21)  # 16 MiB of float64
        a.fill(1.0)
        del a

    one_pass()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one_pass()
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

done = vtrain._fork_map(second_fill_faults, [0, 1], 2)
print(json.dumps([second_fill_faults(None), done]))
"""


class TestWorkerMemory:
    """A forked worker keeps the memory it frees, so the next op reuses it."""

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
    def test_a_worker_reuses_a_freed_16_mib_array(self):
        # with glibc's defaults each fill of such an array gets fresh pages (a
        # mapping, then a heap grown for it), so a worker faults on all 4,096
        # pages of the second fill, and so does the caller. It runs in a fresh
        # interpreter: glibc raises its thresholds after large frees, so this
        # process's history would decide what such a worker does.
        src = str(Path(vtrain.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", SECOND_FILL_FAULTS], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        (caller, faults_here), done = json.loads(out)
        assert len(done) == 2 and caller not in {pid for pid, _ in done}
        assert all(faults < 4096 // 4 for _, faults in done), done
        assert faults_here > 4096 * 3 // 4  # the caller's allocator keeps glibc's defaults

    def test_a_libc_without_mallopt_still_adopts_the_function(self, monkeypatch):
        class NoMallopt:  # a C library that is not glibc
            def __init__(self, name):
                pass

        monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
        monkeypatch.setattr(vtrain, "_WORKER_FN", None)
        vtrain._adopt(len)
        assert vtrain._WORKER_FN is len


def test_import_does_not_load_multiprocessing():
    # gradcheck imports it when it runs, so its cost stays out of `import visarch`
    src = str(Path(vtrain.__file__).resolve().parents[1])
    code = "import sys, visarch; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
