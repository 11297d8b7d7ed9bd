"""Desk-scale training loop, optimizers, lr schedule, and gradient checking.

The loop is fully deterministic: every random choice (shuffle order,
augmentation) comes from a generator seeded by (config seed, epoch index),
so resuming at epoch k reproduces the exact batches a straight run saw.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import models
from .checkpoint import CheckpointError, stored_tensor
from .data import Dataset, augment_batch, synth_dataset
from .tensor import ParamStore, backward, cross_entropy, finite_diff_grad

OPTIMIZERS = ("sgd_momentum", "adamw")
REFERENCE_BATCH = 512
# TrainConfig field annotation -> (accepted types, how an error names them):
# the JSON types, so every valid config round-trips through to_json; a bool
# is only a bool, never an int or a float
_FIELD_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                "float": ((int, float), "a number"), "bool": (bool, "true or false")}


@dataclass(frozen=True)
class TrainConfig:
    preset: str
    epochs: int
    batch_size: int
    optimizer: str = "sgd_momentum"
    base_lr: float = 0.2
    lr_floor: float = 1e-5
    weight_decay: float = 1e-4
    momentum: float = 0.9
    seed: int = 0
    flip: bool = False
    crop_pad: int = 0
    data_classes: int = 10
    data_per_class: int = 50
    data_seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            types, kind = _FIELD_TYPES[f.type]
            if not isinstance(value, types) or (f.type != "bool" and isinstance(value, bool)):
                raise ValueError(f"bad train config: {f.name} must be {kind}, "
                                 f"got {value!r} ({type(value).__name__})")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("base_lr", "lr_floor", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d) -> "TrainConfig":
        """A TrainConfig from parsed JSON; a malformed one raises ValueError."""
        try:
            return TrainConfig(**d)
        except TypeError as e:  # not an object, or a field unknown, missing or mistyped
            raise ValueError(f"bad train config: {e}") from None

    @staticmethod
    def from_json(text: str) -> "TrainConfig":
        return TrainConfig.from_dict(json.loads(text))


def cosine_lr(config: TrainConfig, epoch: int) -> float:
    """Cosine decay from the batch-scaled peak to the batch-scaled floor;
    lr(0) = peak, lr(epochs-1) = floor, monotone non-increasing between."""
    scale = config.batch_size / REFERENCE_BATCH
    peak = config.base_lr * scale
    floor = config.lr_floor * scale
    if config.epochs == 1:
        return peak
    t = epoch / (config.epochs - 1)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * t))


class _SlotState:
    """Per-parameter optimizer state: each name in slots is an attribute holding
    {parameter path: array}, saved in checkpoints as optim.<path>.<slot>."""

    slots: tuple = ()

    def state_tensors(self) -> dict:
        return {f"optim.{p}.{s}": arr for s in self.slots for p, arr in getattr(self, s).items()}

    def scalar_state(self) -> dict:
        return {}

    def load_state(self, tensors: dict, scalars: dict) -> None:
        for s in self.slots:
            state = getattr(self, s)
            for p, arr in state.items():
                state[p] = stored_tensor(tensors, f"optim.{p}.{s}", arr.shape).copy()


class SGDMomentum(_SlotState):
    """Classical momentum with L2 weight decay folded into the gradient."""

    name = "sgd_momentum"
    slots = ("v",)

    def __init__(self, store: ParamStore, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        self.store = store
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.v = {p: np.zeros_like(t.data) for p, t in store.items()}

    def step(self, lr: float) -> None:
        for path, t in self.store.items():
            if t.grad is None:
                continue
            g = t.grad + self.weight_decay * t.data
            v = self.v[path]
            v *= self.momentum
            v += g
            t.data -= lr * v


class AdamW(_SlotState):
    """Adam with decoupled weight decay."""

    name = "adamw"
    slots = ("m", "v")

    def __init__(self, store: ParamStore, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.store = store
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.steps = 0
        self.m = {p: np.zeros_like(t.data) for p, t in store.items()}
        self.v = {p: np.zeros_like(t.data) for p, t in store.items()}

    def step(self, lr: float) -> None:
        self.steps += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.steps
        c2 = 1.0 - b2 ** self.steps
        for path, t in self.store.items():
            if t.grad is None:
                continue
            g = t.grad
            m = self.m[path]
            v = self.v[path]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            t.data -= lr * ((m / c1) / (np.sqrt(v / c2) + self.eps)
                            + self.weight_decay * t.data)

    def scalar_state(self) -> dict:
        return {"adam_steps": self.steps}

    def load_state(self, tensors: dict, scalars: dict) -> None:
        self.steps = int(_scalar(scalars, "adam_steps"))
        super().load_state(tensors, scalars)


def _scalar(scalars: dict, key: str):
    if key not in scalars:
        raise CheckpointError(f"checkpoint extra has no '{key}'")
    return scalars[key]


def make_optimizer(config: TrainConfig, store: ParamStore):
    if config.optimizer == "sgd_momentum":
        return SGDMomentum(store, config.momentum, config.weight_decay)
    return AdamW(store, weight_decay=config.weight_decay)


@dataclass
class TrainResult:
    config: TrainConfig
    model: models.Model
    optimizer: object
    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)
    last_epoch: int = -1


def _epoch_rng(config: TrainConfig, epoch: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, epoch, 0xDA7A])


def default_dataset(config: TrainConfig, resolution: int) -> Dataset:
    return synth_dataset(config.data_classes, config.data_per_class,
                         resolution, config.data_seed)


def train(config: TrainConfig, dataset: Dataset | None = None, *,
          resume_state: dict | None = None, stop_after: int | None = None,
          log=None) -> TrainResult:
    """Run the loop; returns per-epoch mean loss and train accuracy.

    stop_after interrupts the run after that many total epochs while keeping
    the full schedule, so a resumed run replays the exact remaining epochs.
    resume_state carries {model, tensors, scalars} as produced by checkpoint
    loading; a non-finite forward anywhere aborts with the offending layer
    path in the exception message.
    """
    model_cfg = models.preset(config.preset)
    if dataset is None:
        dataset = default_dataset(config, model_cfg.input_resolution)
    if dataset.num_classes > model_cfg.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes but "
                         f"'{config.preset}' outputs {model_cfg.num_classes}")
    if resume_state is None:
        model = models.build(model_cfg, seed=config.seed)
        optim = make_optimizer(config, model.params)
        start_epoch = 0
    else:
        model = resume_state["model"]
        optim = make_optimizer(config, model.params)
        optim.load_state(resume_state["tensors"], resume_state["scalars"])
        start_epoch = int(_scalar(resume_state["scalars"], "epoch")) + 1

    result = TrainResult(config, model, optim, last_epoch=start_epoch - 1)
    end_epoch = config.epochs if stop_after is None else min(stop_after, config.epochs)
    n = len(dataset)
    for epoch in range(start_epoch, end_epoch):
        rng = _epoch_rng(config, epoch)
        order = rng.permutation(n)
        lr = cosine_lr(config, epoch)
        total_loss = 0.0
        correct = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x = augment_batch(dataset.images[idx], rng,
                              flip=config.flip, crop_pad=config.crop_pad)
            y = dataset.labels[idx]
            logits = models.model_forward(model, x, training=True)
            loss = cross_entropy(logits, y)
            model.params.zero_grads()
            backward(loss)
            optim.step(lr)
            total_loss += float(loss.data) * len(idx)
            correct += int((logits.data.argmax(axis=1) == y).sum())
        result.losses.append(total_loss / n)
        result.accuracies.append(correct / n)
        result.last_epoch = epoch
        if log is not None:
            log(f"epoch {epoch:3d}  lr {lr:.6f}  "
                f"loss {result.losses[-1]:.4f}  acc {result.accuracies[-1]:.3f}")
    return result


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradcheckEntry:
    path: str
    index: int
    analytic: float
    numeric: float
    rel: float


@dataclass
class GradcheckReport:
    preset: str
    tolerance: float
    checked: int
    worst: GradcheckEntry
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def table(self) -> str:
        lines = [f"gradcheck {self.preset}: {self.checked} entries, "
                 f"tolerance {self.tolerance:g}"]
        for e in self.failures:
            lines.append(f"  FAIL {e.path}[{e.index}] analytic {e.analytic:+.3e} "
                         f"numeric {e.numeric:+.3e} rel {e.rel:.2e}")
        w = self.worst
        lines.append(f"  worst {w.path}[{w.index}] rel {w.rel:.2e}")
        lines.append("  PASS" if self.passed else "  FAIL")
        return "\n".join(lines)


GRADCHECK_STEPS = (1e-6, 1e-8, 1e-4)


def gradcheck(preset_name: str, tolerance: float = 1e-4, *,
              samples_per_param: int = 2, batch: int = 4,
              seed: int = 0) -> GradcheckReport:
    """Compare analytic gradients against central differences in float64.

    Entries missing tolerance at the first step size are retried at the
    others: relu-kink straddles shrink with h, near-zero derivatives need a
    larger h to rise above the rounding-noise floor (which grows as 1/h), and
    a wrong analytic gradient fails at every h.
    """
    cfg = models.preset(preset_name)
    model = models.build(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(123)
    x = rng.normal(0.0, 1.0, (batch, 3, cfg.input_resolution, cfg.input_resolution))
    y = rng.integers(0, cfg.num_classes, batch)
    saved_buffers = {k: v.copy() for k, v in model.buffers.items()}

    def loss():
        for k, v in saved_buffers.items():
            model.buffers[k][...] = v
        return cross_entropy(models.model_forward(model, x, training=True), y)

    store = model.params
    store.zero_grads()
    backward(loss())
    pick = np.random.default_rng(99)
    checked = 0
    failures = []
    worst = GradcheckEntry("", 0, 0.0, 0.0, -1.0)
    for path, t in store.items():
        flat_grad = (t.grad.reshape(-1) if t.grad is not None
                     else np.zeros(t.data.size))
        k = min(samples_per_param, t.data.size)
        for i in pick.choice(t.data.size, size=k, replace=False):
            i = int(i)
            ana = float(flat_grad[i])
            best = None
            for h in GRADCHECK_STEPS:
                num = finite_diff_grad(loss, store, path, i, h=h)
                rel = abs(ana - num) / max(abs(ana), abs(num), 1e-3)
                if best is None or rel < best[0]:
                    best = (rel, num)
                if rel < tolerance:
                    break
            entry = GradcheckEntry(path, i, ana, best[1], best[0])
            checked += 1
            if entry.rel > worst.rel:
                worst = entry
            if entry.rel >= tolerance:
                failures.append(entry)
    for k, v in saved_buffers.items():
        model.buffers[k][...] = v
    return GradcheckReport(preset_name, tolerance, checked, worst, failures)
