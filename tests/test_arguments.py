"""The argument rules at every entry point: tensor.check_count for an integer,
tensor.check_positive for a positive real, tensor.check_flag for a bool,
build's float32-or-float64 dtype, and models.config_from_dict for a model
config."""

import hashlib
import io
import json
import re
from contextlib import redirect_stdout
from dataclasses import asdict

import numpy as np
import pytest

from visarch import (
    ParamStore,
    TrainConfig,
    attention_logits,
    augment_batch,
    build,
    complexity_report,
    config_from_json,
    config_to_json,
    gradcheck,
    layer_plan,
    model_forward,
    preset,
    synth_dataset,
    train,
)
from visarch import tensor as T
from visarch.cli import build_parser, cmd_fp16
from visarch.tensor import ShapeError, Tensor


def fp16(*argv, d=None, tokens=None):
    """Run `visarch fp16` on argv, its --d and --tokens replaced if given; its stdout."""
    args = build_parser().parse_args(["fp16", "--mag", "1", "--json", *argv])
    args.d = args.d if d is None else d
    args.tokens = args.tokens if tokens is None else tokens
    with redirect_stdout(io.StringIO()) as out:
        cmd_fp16(args)
    return out.getvalue()


# (id, call, error, message): each failed with a bare numpy/Python error or
# ran on a silently wrong value before the rule
REJECTED = [
    ("build-seed-1.5", lambda: build(preset("deit_s-micro"), seed=1.5), ShapeError,
     "seed must be an integer, got 1.5 (float)"),
    ("build-seed--1", lambda: build(preset("deit_s-micro"), seed=-1), ShapeError,
     "seed must be >= 0, got -1"),
    ("build-seed-True", lambda: build(preset("deit_s-micro"), seed=True), ShapeError,
     "seed must be an integer, got True (bool)"),
    ("synth-classes-1", lambda: synth_dataset(1, 5, 8, 0), ValueError, "classes must be >= 2, got 1"),
    ("synth-per-class-2.5", lambda: synth_dataset(10, 2.5, 32, 0), ValueError,
     "samples_per_class must be an integer, got 2.5 (float)"),
    ("synth-per-class-0", lambda: synth_dataset(3, 0, 8, 0), ValueError,
     "samples_per_class must be >= 1, got 0"),
    ("synth-resolution-3", lambda: synth_dataset(3, 5, 3, 0), ValueError,
     "resolution must be >= 4, got 3"),
    ("synth-resolution-8.0", lambda: synth_dataset(3, 5, 8.0, 0), ValueError,
     "resolution must be an integer, got 8.0 (float)"),
    ("synth-seed--1", lambda: synth_dataset(10, 2, 32, -1), ValueError, "seed must be >= 0, got -1"),
    ("gradcheck-batch-float64", lambda: gradcheck("deit_s-micro", batch=np.float64(2.0)),
     ValueError, "batch must be an integer, got np.float64(2.0) (float64)"),
    ("gradcheck-seed--1", lambda: gradcheck("deit_s-micro", seed=-1), ShapeError,
     "seed must be >= 0, got -1"),
    ("fp16-d-float", lambda: fp16("--d", "4", d=4.0), ValueError,
     "--d must be an integer, got 4.0 (float)"),
    ("augment-crop-pad-1.5", lambda: augment_batch(np.zeros((2, 3, 8, 8), np.float32),
                                                   np.random.default_rng(0), crop_pad=1.5),
     ValueError, "crop_pad must be an integer, got 1.5 (float)"),
    ("augment-flip-no", lambda: augment_batch(np.zeros((2, 3, 8, 8), np.float32),
                                              np.random.default_rng(0), flip="no"),
     ValueError, "flip must be a bool, got 'no' (str)"),
    ("augment-flip-1", lambda: augment_batch(np.zeros((2, 3, 8, 8), np.float32),
                                             np.random.default_rng(0), flip=1),
     ValueError, "flip must be a bool, got 1 (int)"),
    ("forward-training-False-str", lambda: model_forward(
        build(preset("visformer_ti-micro")), np.zeros((2, 3, 32, 32), np.float32),
        training="False"), ShapeError, "training must be a bool, got 'False' (str)"),
    ("forward-training-None", lambda: model_forward(
        build(preset("deit_s-micro")), np.zeros((1, 3, 32, 32), np.float32), training=None),
     ShapeError, "training must be a bool, got None (NoneType)"),
    ("build-dtype-int32", lambda: build(preset("resnet50_shape-micro"), dtype=np.int32),
     ShapeError, "model dtype must be float32 or float64, got <class 'numpy.int32'>"),
    ("build-dtype-float16", lambda: build(preset("deit_s-micro"), dtype=np.float16),
     ShapeError, "model dtype must be float32 or float64, got <class 'numpy.float16'>"),
    ("build-dtype-banana", lambda: build(preset("deit_s-micro"), dtype="banana"),
     ShapeError, "model dtype must be float32 or float64, got 'banana'"),
    ("build-dtype-None", lambda: build(preset("deit_s-micro"), dtype=None),
     ShapeError, "model dtype must be float32 or float64, got None"),
    ("train-config-not-json", lambda: TrainConfig.from_json("preset: deit_s-micro"), ValueError,
     "bad train config: not JSON: Expecting value: line 1 column 1 (char 0)"),
    # a positive real argument (tensor.check_positive) and a probe index, where
    # a ZeroDivisionError or IndexError came out, or the call ran, before
    ("logits-alpha--2", lambda: attention_logits(Tensor(np.ones((1, 1, 2, 4))),
                                                 Tensor(np.ones((1, 1, 2, 4))), "pb_relax",
                                                 alpha=-2),
     ValueError, "alpha must be finite and > 0, got -2"),
    ("logits-alpha-nan", lambda: attention_logits(Tensor(np.ones((1, 1, 2, 4))),
                                                  Tensor(np.ones((1, 1, 2, 4))), alpha=np.nan),
     ValueError, "alpha must be finite and > 0, got nan"),
    ("finite-diff-h-0", lambda: probe(h=0), ValueError, "h must be finite and > 0, got 0"),
    ("finite-diff-h-str", lambda: probe(h="1e-3"), ValueError,
     "h must be a real number, got '1e-3' (str)"),
    ("finite-diff-index-4", lambda: probe(index=4), ValueError,
     "index must be below the 4 entries of 'th', got 4"),
    ("finite-diff-index--1", lambda: probe(index=-1), ValueError, "index must be >= 0, got -1"),
    ("finite-diff-index-1.0", lambda: probe(index=1.0), ValueError,
     "index must be an integer, got 1.0 (float)"),
    # the shape ops, which cast or passed through their integers before, and
    # gather_rows and softmax, which gave numpy's IndexError and ValueError
    ("reshape-size-6.9", lambda: T.reshape(Tensor(np.ones((2, 3))), (6.9,)), ShapeError,
     "reshape size must be an integer, got 6.9 (float)"),
    ("reshape-size-True", lambda: T.reshape(Tensor(np.ones((2, 3))), (True, 6)), ShapeError,
     "reshape size must be an integer, got True (bool)"),
    ("narrow-start-True", lambda: T.narrow(Tensor(np.ones((2, 3))), 1, True, 1), ShapeError,
     "narrow start must be an integer, got True (bool)"),
    ("narrow-length-2.5", lambda: T.narrow(Tensor(np.ones((2, 3))), 1, 0, 2.5), ShapeError,
     "narrow length must be an integer, got 2.5 (float)"),
    ("narrow-start--1", lambda: T.narrow(Tensor(np.ones((2, 3))), 1, -1, 1), ShapeError,
     "narrow start must be >= 0, got -1"),
    ("batch-tile-0", lambda: T.batch_tile(Tensor(np.ones((2, 3))), 0), ShapeError,
     "batch_tile n must be >= 1, got 0"),
    ("batch-tile-2.5", lambda: T.batch_tile(Tensor(np.ones((2, 3))), 2.5), ShapeError,
     "batch_tile n must be an integer, got 2.5 (float)"),
    ("batch-tile--1", lambda: T.batch_tile(Tensor(np.ones((2, 3))), -1), ShapeError,
     "batch_tile n must be >= 1, got -1"),
    ("gather-rows-index-3", lambda: T.gather_rows(Tensor(np.ones((3, 2))), np.array([[0, 3]])),
     ShapeError, "gather_rows index must be in [0, 3) for a 3-row table, got 0 to 3"),
    ("softmax-empty-axis", lambda: T.softmax(Tensor(np.ones((2, 0))), axis=-1), ShapeError,
     "softmax over axis 1 needs at least one entry, got shape (2, 0)"),
    # degenerate input to three engine ops, which gave numpy's ValueError
    # (reduce_max's "zero-size array", a reshape, a broadcast) or a ZeroDivisionError
    ("reduce-max-empty-axis", lambda: T.reduce_max(Tensor(np.ones((2, 0))), axis=-1),
     ShapeError, "reduce_max over axis 1 needs at least one entry, got shape (2, 0)"),
    ("conv2d-no-input-channels", lambda: T.conv2d(Tensor(np.ones((1, 0, 4, 4))),
                                                  Tensor(np.ones((2, 0, 3, 3)))),
     ShapeError, "conv2d weight needs every axis >= 1, got (2, 0, 3, 3)"),
    ("conv2d-0-row-kernel", lambda: T.conv2d(Tensor(np.ones((1, 2, 4, 4))),
                                             Tensor(np.ones((2, 2, 0, 3)))),
     ShapeError, "conv2d weight needs every axis >= 1, got (2, 2, 0, 3)"),
    ("conv2d-1x1-no-input-channels", lambda: T.conv2d(Tensor(np.ones((1, 0, 4, 4))),
                                                      Tensor(np.ones((2, 0, 1, 1)))),
     ShapeError, "conv2d weight needs every axis >= 1, got (2, 0, 1, 1)"),
    ("add-no-broadcast", lambda: T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
     ShapeError, "add needs shapes that broadcast, got (2, 3) and (3, 2)"),
    ("sub-no-broadcast", lambda: T.sub(Tensor(np.ones((2, 3))), Tensor(np.ones(2))),
     ShapeError, "sub needs shapes that broadcast, got (2, 3) and (2,)"),
    ("mul-no-broadcast", lambda: T.mul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 3, 4)))),
     ShapeError, "mul needs shapes that broadcast, got (2, 3, 4) and (3, 3, 4)"),
    # an empty batch or map, which gave a ZeroDivisionError, numpy's reshape
    # ValueError, or a "Mean of empty slice" warning and then NonFiniteError
    ("conv2d-empty-batch", lambda: T.conv2d(Tensor(np.ones((0, 2, 4, 4))),
                                            Tensor(np.ones((3, 2, 3, 3)))),
     ShapeError, "conv2d needs a batch of at least one sample, got shape (0, 2, 4, 4)"),
    ("conv2d-1x1-empty-batch", lambda: T.conv2d(Tensor(np.ones((0, 2, 4, 4))),
                                                Tensor(np.ones((3, 2, 1, 1)))),
     ShapeError, "conv2d needs a batch of at least one sample, got shape (0, 2, 4, 4)"),
    ("linear-empty-batch", lambda: T.linear(Tensor(np.ones((0, 2))), Tensor(np.ones((3, 2)))),
     ShapeError, "linear needs a batch of at least one sample, got shape (0, 2)"),
    ("batch-norm-empty-batch", lambda: T.batch_norm(
        Tensor(np.ones((0, 2, 4, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
        np.zeros(2), np.ones(2), training=True),
     ShapeError, "batch_norm needs a batch of at least one sample, got shape (0, 2, 4, 4)"),
    ("global-avg-pool-empty-map", lambda: T.global_avg_pool(Tensor(np.ones((1, 2, 0, 0)))),
     ShapeError, "global_avg_pool over axis 2 needs at least one entry, got shape (1, 2, 0, 0)"),
    ("global-avg-pool-empty-width", lambda: T.global_avg_pool(Tensor(np.ones((1, 2, 3, 0)))),
     ShapeError, "global_avg_pool over axis 3 needs at least one entry, got shape (1, 2, 3, 0)"),
    ("layer-norm-no-channels", lambda: T.layer_norm(Tensor(np.ones((1, 0, 2, 2))),
                                                    Tensor(np.ones(0)), Tensor(np.zeros(0))),
     ShapeError, "layer_norm over axis 1 needs at least one entry, got shape (1, 0, 2, 2)"),
]


# a model config: one parse rule, where a JSONDecodeError, KeyError or TypeError
# came out before. Each row names what its message must hold: the field, kind or
# type that is wrong.
CONFIG_REJECTED = [
    ("config-not-json", lambda: config_from_json("nope"), "not JSON"),
    ("config-empty", lambda: config_from_json("{}"), "'stages'"),
    ("config-array", lambda: config_from_json("[1]"), "'list'"),
    ("config-no-stages", lambda: config_edited(lambda c: c.pop("stages")), "'stages'"),
    ("config-unknown-field", lambda: config_edited(lambda c: c.update(bogus=1)), "'bogus'"),
    ("config-stages-number", lambda: config_edited(lambda c: c.update(stages=3)), "'int'"),
    ("config-stage-no-embed", lambda: config_edited(lambda c: c["stages"][0].pop("embed")),
     "'embed'"),
    ("config-stage-unknown-field", lambda: config_edited(
        lambda c: c["stages"][0].update(extra=1)), "'extra'"),
    ("config-embed-unknown-field", lambda: config_edited(
        lambda c: c["stages"][1]["embed"].update(kernel=2)), "'kernel'"),
    ("config-blocks-number", lambda: config_edited(lambda c: c["stages"][0].update(blocks=3)),
     "'int'"),
    ("config-block-kind-mlp", lambda: config_edited(
        lambda c: c["stages"][1]["blocks"][0].update(kind="mlp")), "'mlp'"),
    ("config-block-no-kind", lambda: config_edited(
        lambda c: c["stages"][1]["blocks"][0].pop("kind")), "'kind'"),
    ("config-block-not-object", lambda: config_edited(
        lambda c: c["stages"][1]["blocks"].__setitem__(0, [])), "list"),
    ("config-block-no-heads", lambda: config_edited(
        lambda c: c["stages"][1]["blocks"][0].pop("heads")), "'heads'"),
]


@pytest.mark.parametrize("call,names", [r[1:] for r in CONFIG_REJECTED],
                         ids=[r[0] for r in CONFIG_REJECTED])
def test_rejects_malformed_config_naming_it(call, names):
    with pytest.raises(ValueError, match="^bad model config: ") as caught:
        call()
    assert caught.type is ValueError and names in str(caught.value)


@pytest.mark.parametrize("text,kind", [(b"\xff", "not JSON"), ("nope", "not JSON"),
                                       ("[1]", "TypeError"), (b"[1]", "TypeError")],
                         ids=["not-utf8", "not-json", "array", "array-bytes"])
def test_both_configs_read_back_under_one_rule(text, kind):
    # before, TrainConfig.from_json(b"\xff") raised a bare UnicodeDecodeError,
    # and the two configs worded the same TypeError differently
    causes = []
    for what, read in (("model", config_from_json), ("train", TrainConfig.from_json)):
        with pytest.raises(ValueError, match=f"^bad {what} config: {kind}: ") as caught:
            read(text)
        assert caught.type is ValueError
        causes.append(str(caught.value).split(f"{kind}: ", 1)[1])
    if kind == "not JSON":
        assert causes[0] == causes[1]


def config_edited(edit):
    """config_from_json of visformer_ti-micro's JSON after edit(its parsed dict)."""
    d = json.loads(config_to_json(preset("visformer_ti-micro")))
    edit(d)
    return config_from_json(json.dumps(d))


def probe(index=0, h=1e-3):
    """finite_diff_grad of sum(th^2) at th = [0, 1, 2, 3]."""
    store = ParamStore()
    th = store.add("th", Tensor(np.arange(4.0), dtype=np.float64))
    return T.finite_diff_grad(lambda: T.sum_all(T.mul(th, th)), store, "th", index, h=h)


@pytest.mark.parametrize("call,error,message", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_rejects_argument_naming_it(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.type is error


def as_json(result) -> str:
    """result as JSON text, arrays as nested lists; a numpy scalar raises TypeError."""
    def arrays(a):
        if isinstance(a, np.ndarray):
            return a.tolist()
        raise TypeError(f"{type(a).__name__} is not JSON serializable")
    return json.dumps(result, default=arrays)


def digest(model) -> str:
    h = hashlib.sha256()
    for _, t in model.params.items():
        h.update(t.data.tobytes())
    return h.hexdigest()


def conv(n):
    rng = np.random.default_rng(0)
    x, w = Tensor(rng.normal(size=(2, 4, 7, 7))), Tensor(rng.normal(size=(4, 2, 3, 3)))
    out = T.conv2d(x, w, stride=n(2), padding=n(1), groups=n(2))
    gemm = T.conv2d(x, Tensor(rng.normal(size=(3, 4, 1, 1))), stride=n(2))
    return [out.shape, out.data, gemm.shape, gemm.data]


def pool(n):
    x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 7, 7)))
    out = T.max_pool2d(x, kernel=n(3), stride=n(2), padding=n(1))
    return [out.shape, out.data]


def built(n):
    model = build(preset("deit_s-micro"), seed=n(5))
    return [model.seed, digest(model)]


def run_train(n):
    config = TrainConfig(preset="visformer_ti-micro", epochs=2, batch_size=16,
                         data_classes=4, data_per_class=4, seed=3)
    r = train(config, synth_dataset(4, 4, 32, 2), stop_after=n(1))
    return [r.losses, r.accuracies, r.last_epoch, digest(r.model)]


def augmented(n):
    images = np.random.default_rng(0).normal(size=(3, 3, 8, 8)).astype(np.float32)
    return augment_batch(images, np.random.default_rng(1), flip=True, crop_pad=n(2))


def run_fp16(n):
    return fp16("--d", "4", "--tokens", "3", d=n(4), tokens=n(3))


# every argument site, each integer argument made by the row's n
SITES = {
    "out_size": lambda n: T.out_size(7, 3, n(2), n(1)),
    "conv2d": conv,
    "max_pool2d": pool,
    "layer_plan": lambda n: [(e.prefix, e.in_shape, e.out_shape)
                             for e in layer_plan(preset("visformer_ti-micro"), n(64))],
    "complexity_report": lambda n: complexity_report(preset("deit_s-micro"), n(32)).to_dict(),
    "build": built,
    "synth_dataset": lambda n: asdict(synth_dataset(n(4), n(3), n(8), n(5))),
    "augment_batch": augmented,
    "train": run_train,
    "gradcheck": lambda n: asdict(gradcheck("deit_s-micro", samples_per_param=n(1),
                                            batch=n(1), seed=n(2))),
    "fp16": run_fp16,
}


@pytest.mark.parametrize("site", list(SITES))
def test_numpy_integer_gives_the_ints_result(site):
    # a numpy integer is checked, then read as the Python int it holds, so
    # shapes, rows and reports stay JSON-serializable
    assert as_json(SITES[site](np.int64)) == as_json(SITES[site](int))


def test_numpy_bool_gives_the_bools_result():
    images = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
    for flag in (True, False):
        assert np.array_equal(augment_batch(images, np.random.default_rng(1), flip=np.bool_(flag)),
                              augment_batch(images, np.random.default_rng(1), flip=flag))
    x = np.random.default_rng(2).normal(size=(2, 3, 32, 32)).astype(np.float32)
    for flag in (True, False):
        a, b = (model_forward(build(preset("visformer_ti-micro")), x, training=t)
                for t in (np.bool_(flag), flag))
        assert a.data.tobytes() == b.data.tobytes() and a.requires_grad == b.requires_grad == flag


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.dtype("float64"), "float32"],
                         ids=["float32", "float64", "dtype-float64", "str-float32"])
def test_build_takes_either_float_dtype_however_named(dtype):
    model = build(preset("resnet50_shape-micro"), dtype=dtype)
    assert model.dtype == np.dtype(dtype)
    assert {t.dtype for _, t in model.params.items()} == {model.dtype}
    assert {b.dtype for b in model.buffers.values()} == {model.dtype}
