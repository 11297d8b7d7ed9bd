"""Training loop, optimizers, schedule, and gradient checking."""

import numpy as np
import pytest

import visarch.tensor as vt
from visarch import (
    CheckpointError,
    NonFiniteError,
    TrainConfig,
    build,
    cosine_lr,
    gradcheck,
    make_optimizer,
    preset,
    synth_dataset,
    train,
)
from visarch.tensor import ParamStore, Tensor
from visarch.train import REFERENCE_BATCH, AdamW, SGDMomentum


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


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config(flip=True, crop_pad=2)
        assert TrainConfig.from_json(cfg.to_json()) == cfg

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
        fresh = cls(opt.store)
        fresh.load_state(saved, opt.scalar_state())
        assert fresh.scalar_state() == opt.scalar_state()
        for key, arr in fresh.state_tensors().items():
            assert arr.tobytes() == saved[key].tobytes()
            assert arr is not saved[key]

    @pytest.mark.parametrize("cls", [SGDMomentum, AdamW])
    @pytest.mark.parametrize("edit", ["missing", "misshaped"])
    def test_bad_tensor_names_the_key(self, cls, edit):
        opt = self.make(cls)
        saved = opt.state_tensors()
        if edit == "missing":
            del saved["optim.a.w.v"]
        else:
            saved["optim.a.w.v"] = np.zeros(3)
        with pytest.raises(CheckpointError, match=r"'optim\.a\.w\.v'"):
            cls(opt.store).load_state(saved, opt.scalar_state())

    def test_adamw_needs_its_step_count(self):
        opt = self.make(AdamW)
        with pytest.raises(CheckpointError, match="adam_steps"):
            AdamW(opt.store).load_state(opt.state_tensors(), {})


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

    @pytest.mark.parametrize("optimizer", ["sgd_momentum", "adamw"])
    def test_interrupt_and_resume_matches_straight_run(self, optimizer):
        cfg = tiny_config(optimizer=optimizer, base_lr=0.05)
        ds = tiny_dataset()
        full = train(cfg, ds)

        partial = train(cfg, ds, stop_after=1)
        assert len(partial.losses) == 1
        state = {
            "model": partial.model,
            "tensors": partial.optimizer.state_tensors(),
            "scalars": {"epoch": partial.last_epoch,
                        **partial.optimizer.scalar_state()},
        }
        resumed = train(cfg, ds, resume_state=state)
        assert partial.losses + resumed.losses == full.losses
        assert param_bytes(resumed.model) == param_bytes(full.model)
        for k, v in resumed.model.buffers.items():
            assert v.tobytes() == full.model.buffers[k].tobytes()

    def test_rejects_dataset_with_too_many_classes(self):
        ds = synth_dataset(12, 1, 32, seed=0)
        with pytest.raises(ValueError, match="classes"):
            train(tiny_config(), ds)

    def test_divergence_aborts_with_layer_path(self):
        cfg = tiny_config(epochs=1, optimizer="sgd_momentum", base_lr=1e24)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="s0.embed"):
            train(cfg, tiny_dataset())

    def test_log_callback_sees_each_epoch(self):
        lines = []
        train(tiny_config(epochs=2), tiny_dataset(), log=lines.append)
        assert len(lines) == 2
        assert "loss" in lines[0] and "lr" in lines[0]


class TestGradcheck:
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
