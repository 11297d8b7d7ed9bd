"""Desk-scale training loop, optimizers, lr schedule, resumable runs and gradient checking.

The loop is fully deterministic: every random choice (shuffle order,
augmentation) comes from a generator seeded by (config seed, epoch index),
so resuming at epoch k reproduces the exact batches a straight run saw.
save_run and load_run checkpoint a run; train() resumes one only under its train config.
gradcheck runs the probes of each plan entry as one task whose rounds stack
their forwards (_entry_slopes), and maps the tasks over forked workers (_fork_map)
whose allocators keep the memory they free (_adopt).
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import models
from .checkpoint import (OPTIM, CheckpointError, check_keys, checkpoint_load, checkpoint_save,
                         model_from_checkpoint, optim_key, optim_tensors, stored_int,
                         stored_state)
from .data import MIN_CLASSES, Dataset, augment_batch, synth_dataset
from .blocks import BUFFER_INITS, LAYERS, check_fields
from .tensor import (ParamStore, Tensor, _central_pair, _grouped, backward, check_count,
                     check_positive, cross_entropy)
from .tensor import finite_diff_grad  # noqa: F401 -- perfbench's tracer patches it here by name

REFERENCE_BATCH = 512


@dataclass(frozen=True)
class TrainConfig:
    POSITIVE = ("epochs", "batch_size", "data_per_class")
    CHOICES = {"optimizer": ("sgd_momentum", "adamw")}

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
        check_fields(self, "train config")
        if self.data_classes < MIN_CLASSES:  # the default dataset's floor
            raise ValueError(f"bad train config: data_classes must be >= {MIN_CLASSES}, "
                             f"got {self.data_classes}")
        if self.momentum >= 1.0:
            raise ValueError(f"bad train config: momentum must be < 1, got {self.momentum}")
        if self.lr_floor > self.base_lr:  # the cosine schedule would rise
            raise ValueError(f"bad train config: lr_floor must be <= base_lr, got "
                             f"lr_floor {self.lr_floor} > base_lr {self.base_lr}")

    @staticmethod
    def from_dict(d) -> "TrainConfig":
        """A TrainConfig from parsed JSON; a malformed one raises models._malformed's ValueError."""
        with models._malformed("train"):
            return TrainConfig(**d)

    @staticmethod
    def from_json(text: str) -> "TrainConfig":
        """A TrainConfig from models.config_to_json's text; text not JSON raises ValueError too."""
        return TrainConfig.from_dict(models._parsed("train", text))


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
    {parameter path: array}, saved in checkpoints at optim_key(path, slot).

    Each slot is filled once: with zeros for a fresh run, or, from a resume
    state's tensors, with optim.<path>.<slot> itself, which must have the
    parameter's shape and be finite, and >= 0 in a nonnegative slot; steps
    write that array (train() passes its own copy of the state).
    A stored optim.* tensor that is none of this optimizer's slots (another
    optimizer's state) raises CheckpointError."""

    slots: tuple = ()
    nonnegative: tuple = ()  # slots that hold a sum of squares

    def __init__(self, store: ParamStore, state: dict | None = None):
        self.store = store
        if state is not None:
            check_keys(state["tensors"], (OPTIM,),
                       {optim_key(p, s) for s in self.slots for p in store.paths()}, self.name)
        for s in self.slots:
            setattr(self, s, {p: np.zeros_like(t.data) if state is None else
                              stored_state(state["tensors"], optim_key(p, s), t.data.shape,
                                           s in self.nonnegative)
                              for p, t in store.items()})

    def state_tensors(self) -> dict:
        return {optim_key(p, s): arr for s in self.slots for p, arr in getattr(self, s).items()}

    def scalar_state(self) -> dict:
        return {}


class SGDMomentum(_SlotState):
    """Classical momentum with L2 weight decay folded into the gradient."""

    name = "sgd_momentum"
    slots = ("v",)

    def __init__(self, store: ParamStore, momentum: float = 0.9,
                 weight_decay: float = 0.0, *, state: dict | None = None):
        super().__init__(store, state)
        self.momentum = momentum
        self.weight_decay = weight_decay

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
    """Adam with decoupled weight decay; a resume state also carries the step
    count, scalars["adam_steps"], an integer >= 0."""

    name = "adamw"
    slots = ("m", "v")
    nonnegative = ("v",)

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, store: ParamStore, weight_decay: float = 0.0, *,
                 state: dict | None = None):
        super().__init__(store, state)
        self.weight_decay = weight_decay
        self.steps = 0 if state is None else stored_int(state["scalars"], "adam_steps", 0)

    def step(self, lr: float) -> None:
        self.steps += 1
        b1, b2 = self.BETAS
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
            t.data -= lr * ((m / c1) / (np.sqrt(v / c2) + self.EPS)
                            + self.weight_decay * t.data)

    def scalar_state(self) -> dict:
        return {"adam_steps": self.steps}


def make_optimizer(config: TrainConfig, store: ParamStore, state: dict | None = None):
    """The config's optimizer over store, fresh, or resumed from state's
    {tensors, scalars} (a train resume_state) as _SlotState describes."""
    if config.optimizer == "sgd_momentum":
        return SGDMomentum(store, config.momentum, config.weight_decay, state=state)
    return AdamW(store, weight_decay=config.weight_decay, state=state)


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


def train(config: TrainConfig, dataset: Dataset | None = None, *,
          resume_state: dict | None = None, stop_after: int | None = None,
          log=None) -> TrainResult:
    """Run the loop; returns per-epoch mean loss and train accuracy.

    stop_after (an integer >= 0) interrupts the run after that many total
    epochs, keeping the full schedule, so a resumed run replays the exact
    remaining epochs. resume_state is {model, tensors, scalars} from load_run:
    scalars["train_config"] must be config (checked first), the model its
    preset, scalars["epoch"] the last epoch run, and the optimizer is built
    from the tensors and scalars, so state another optimizer saved raises
    CheckpointError (see _SlotState). The run trains a copy of resume_state,
    so the same state resumes the same run again. A batch_size whose smallest
    batch would give a batch norm one value per channel at the dataset's resolution
    raises ValueError before the first step (_check_smallest_batch). A non-finite forward
    anywhere aborts with the offending layer path in the exception message.
    """
    if stop_after is not None:
        stop_after = check_count("stop_after", stop_after, 0)
    model_cfg = models.preset(config.preset)
    if dataset is None:
        dataset = synth_dataset(config.data_classes, config.data_per_class,
                                model_cfg.input_resolution, config.data_seed)
    if dataset.num_classes > model_cfg.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes but "
                         f"'{config.preset}' outputs {model_cfg.num_classes}")
    n = len(dataset)
    _check_smallest_batch(model_cfg, dataset.resolution, config.batch_size, n)
    if resume_state is None:
        model = models.build(model_cfg, seed=config.seed)
        start_epoch = 0
    else:
        if "train_config" not in resume_state["scalars"]:
            raise CheckpointError("resume checkpoint holds no train_config, so it cannot be resumed")
        try:
            saved = asdict(TrainConfig.from_dict(resume_state["scalars"]["train_config"]))
        except ValueError as e:
            raise CheckpointError(f"checkpoint extra 'train_config' is malformed: {e}") from None
        diff = ", ".join(f"{k} {v} != {saved[k]}" for k, v in asdict(config).items() if v != saved[k])
        if diff:
            raise CheckpointError("resume checkpoint was written by a different train config "
                                  f"(this one vs the checkpoint's): {diff}")
        resume_state = copy.deepcopy(resume_state)  # the run writes its model and slots
        model = resume_state["model"]
        if model.config != model_cfg:
            raise CheckpointError(f"checkpoint holds a '{model.config.name}' model, but the "
                                  f"train config names preset '{config.preset}'")
        epoch = stored_int(resume_state["scalars"], "epoch", -1)
        if epoch >= config.epochs:
            raise CheckpointError(f"checkpoint extra 'epoch' must be in -1..{config.epochs - 1}, "
                                  f"got {epoch}")
        start_epoch = epoch + 1
    optim = make_optimizer(config, model.params, resume_state)

    result = TrainResult(config, model, optim, last_epoch=start_epoch - 1)
    end_epoch = config.epochs if stop_after is None else min(stop_after, config.epochs)
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


def _check_smallest_batch(config: models.ModelConfig, resolution: int, batch_size: int,
                          n: int) -> None:
    """Raise ValueError naming batch_size, n and the plan entry if the run's smallest
    batch (batch_size, or the nonzero remainder of the n samples) times the smallest
    output map, at the data's resolution, of an entry holding a batch norm is below 2,
    the values per channel that a train-mode batch norm needs."""
    smallest = n % batch_size or batch_size
    hw, prefix = min(((e.out_shape[1:], e.prefix) for e in models.layer_plan(config, resolution)
                      if any(s.init in BUFFER_INITS for s in LAYERS[e.kind].params(e, config))),
                     key=lambda m: math.prod(m[0]), default=((2,), None))
    if smallest * math.prod(hw) < 2:
        raise ValueError(f"batch_size {batch_size} over {n} samples gives a smallest batch of "
                         f"{smallest}, but the batch norm at '{prefix}' on "
                         f"{'x'.join(map(str, hw))} maps needs more than one value per channel")


def save_run(result: TrainResult, path) -> None:
    """Checkpoint result's model, optimizer, seed, last epoch and train config."""
    extra = {"seed": result.config.seed, "epoch": result.last_epoch,
             "train_config": asdict(result.config), **result.optimizer.scalar_state()}
    checkpoint_save(result.model, path, extra, result.optimizer.state_tensors())


def load_run(path) -> dict:
    """A save_run checkpoint as the resume state {model, tensors, scalars} train() takes."""
    loaded = checkpoint_load(path)
    return {"model": model_from_checkpoint(loaded), "tensors": optim_tensors(loaded),
            "scalars": loaded["extra"]}


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


def _entry_slopes(model: models.Model, plan: list, k: int, x: Tensor, y,
                  probes: list, h: float) -> list:
    """The central-difference slope of the loss at step h for each (path, index)
    probe of plan entry k's parameters, x being that entry's input.

    Each probe raises and lowers its value as finite_diff_grad does
    (_central_pair) and runs entry k alone; the 2 * len(probes) outputs are
    stacked along the batch axis, and plan[k + 1:] runs once on the stack.
    Both run in one mode, with each batch as its own group (tensor._grouped),
    so no run writes the model's batch-norm buffers or records a graph. No
    entry reads a later entry's parameter, and train-mode batch norm
    normalises with batch statistics, so each group's loss has the bits of a
    whole train-mode forward with that probe's value.
    """
    def entry_output():
        return models.run_plan(model, plan[k:k + 1], x, True).data

    n = len(y)
    with _grouped(n):
        outs = [out for path, index in probes
                for out in _central_pair(model.params[path].data, index, h, entry_output)]
        logits = models.run_plan(model, plan[k + 1:], Tensor(np.concatenate(outs)), True)
    losses = [float(cross_entropy(Tensor(logits.data[a:a + n]), y).data)
              for a in range(0, len(outs) * n, n)]
    return [(up - down) / (2.0 * h) for up, down in zip(losses[::2], losses[1::2])]


def gradcheck(preset_name: str, tolerance: float = 1e-4, *,
              samples_per_param: int = 2, batch: int = 4) -> GradcheckReport:
    """Compare analytic gradients against central differences in float64.

    The model (build's seed 0), batch (seed 123) and probes (seed 99) are
    fixed. One train-mode forward, run entry by entry (models.entry_inputs),
    gives both the analytic gradients, by backward from its logits, and each
    plan entry's input. The probes, one store-order list of (path, index,
    analytic), are grouped by the plan entry that owns each into tasks:
    each round runs that entry alone per probe and sign, and the rest of the
    plan once for all of them (_entry_slopes), so the report equals the one
    probes through the whole model_forward give, in far fewer op calls, and
    leave the model's batch-norm buffers as the analytic pass left them. The
    tasks run in forked worker processes, one per usable CPU (_fork_map), and
    their entries are merged back in store order, so the report does not
    depend on the worker count. Each worker keeps the memory its probes free
    for the next op (_adopt); the caller's allocator is left as it is.
    An entry passes only when its rel is below tolerance, so a NaN rel (a
    non-finite analytic gradient) fails; worst is the first entry with the
    largest rel, a NaN counting as the largest.
    Probes missing tolerance at the first step size are retried at the
    others: relu-kink straddles shrink with h, near-zero derivatives need a
    larger h to rise above the rounding-noise floor (which grows as 1/h), and
    a wrong analytic gradient fails at every h. samples_per_param and batch
    must be integers >= 1 and tolerance a finite real number > 0
    (check_positive), so a check cannot pass without comparing anything.
    """
    samples_per_param = check_count("samples_per_param", samples_per_param, 1)
    batch = check_count("batch", batch, 1)
    tolerance = check_positive("tolerance", tolerance)
    cfg = models.preset(preset_name)
    model = models.build(cfg, dtype=np.float64)
    rng = np.random.default_rng(123)
    x = rng.normal(0.0, 1.0, (batch, 3, cfg.input_resolution, cfg.input_resolution))
    y = rng.integers(0, cfg.num_classes, batch)
    plan = models.layer_plan(cfg)
    inputs = models.entry_inputs(model, plan, Tensor(x), True)
    store = model.params
    backward(cross_entropy(inputs[-1], y))  # frees the graph; inputs keep their data
    owner = {slot.path: k for k, e in enumerate(plan)
             for slot in LAYERS[e.kind].params(e, cfg) if slot.init not in BUFFER_INITS}
    pick = np.random.default_rng(99)
    probes = []  # (path, index, analytic), in store order
    for path, t in store.items():
        flat_grad = (t.grad.reshape(-1) if t.grad is not None
                     else np.zeros(t.data.size))
        k = min(samples_per_param, t.data.size)
        probes += [(path, int(i), float(flat_grad[i]))
                   for i in pick.choice(t.data.size, size=k, replace=False)]
    tasks = {}  # plan entry -> its probes, in store order
    for probe in probes:
        tasks.setdefault(owner[probe[0]], []).append(probe)

    def check_entry(task) -> list:
        k, owned = task
        best = [None] * len(owned)
        todo = list(range(len(owned)))
        for h in GRADCHECK_STEPS:
            slopes = _entry_slopes(model, plan, k, inputs[k], y,
                                   [owned[j][:2] for j in todo], h)
            for j, num in zip(todo, slopes):
                ana = owned[j][2]
                rel = abs(ana - num) / max(abs(ana), abs(num), 1e-3)
                if best[j] is None or rel < best[j][0]:
                    best[j] = (rel, num)
            todo = [j for j in todo if not best[j][0] < tolerance]
            if not todo:
                break
        return [GradcheckEntry(path, i, ana, num, rel)
                for (path, i, ana), (rel, num) in zip(owned, best)]

    done = {k: iter(entries) for k, entries in
            zip(tasks, _fork_map(check_entry, list(tasks.items()), _probe_workers(len(tasks))))}
    entries = [next(done[owner[path]]) for path, _, _ in probes]  # store order again
    worst = max(entries, key=lambda e: (math.isnan(e.rel), e.rel))  # the first of the largest
    failures = [e for e in entries if not e.rel < tolerance]
    return GradcheckReport(preset_name, tolerance, len(entries), worst, failures)


def _probe_workers(tasks: int) -> int:
    """How many processes run gradcheck's tasks: one per CPU this process may
    run on, at most one per task, and 1 where the CPU set is unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), tasks)


_WORKER_FN = None  # the mapped function, set only in _fork_map's forked workers


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _adopt(fn) -> None:
    """_fork_map's pool initializer: fn is what this worker maps, and the worker's
    allocator keeps the memory it frees. glibc's mallopt takes every block up to
    its 32 MiB maximum from the heap and trims the heap only past 1 GiB, so a
    probe temporary one op frees is reused by the next op rather than handed
    back to the kernel and faulted in again. Without mallopt (not glibc) the
    allocator is left as it is. The caller's allocator is never touched."""
    global _WORKER_FN
    _WORKER_FN = fn
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the libc already loaded
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _pooled(item):
    """_WORKER_FN(item), run in a worker; what it raises reaches _fork_map's map."""
    return _WORKER_FN(item)


def _fork_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], with the same results and the same first exception.

    Workers forked from this process inherit fn and everything it reads, so
    only the items and the results travel; each takes one whole item at a time
    and keeps numpy's BLAS thread count, so its bits are the serial loop's.
    Each worker's allocator keeps the memory it frees (_adopt), so a temporary
    one op frees is not faulted in again by the next; this process's
    allocator is not touched.
    Every failure takes one route. The pool's map raises at the first failed
    item in item order, whether it raised, its exception would not pickle, its
    worker died (a killed one would hang a multiprocessing.Pool) or its result
    could not be read back; the pool is shut down and the items from that one
    on run here, so the caller sees the serial loop's result or exception.
    With fewer than 2 workers, without fork, inside a daemon process (which
    may not have children) or while another thread runs (a forked child would
    inherit its locks as they stand), all run here.
    """
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    done = []
    if (workers >= 2 and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon and threading.active_count() == 1):
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (fn,))
        try:
            for result in pool.map(_pooled, items):
                done.append(result)
        except Exception:
            pass
        finally:
            pool.shutdown(cancel_futures=True)  # waits for the items already running
    return done + [fn(item) for item in items[len(done):]]
