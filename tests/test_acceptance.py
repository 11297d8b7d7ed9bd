"""Acceptance gate: the seven checks this package must pass.

Each test prints one "criterion N: PASS/FAIL" line (visible with -s, or on
failure); the test names carry the same numbering for plain -v runs.
"""

import numpy as np
import pytest

import visarch.tensor as tz
from visarch import (
    TrainConfig,
    attention_logits,
    build,
    complexity_report,
    diff_configs,
    gradcheck,
    model_forward,
    preset,
    synth_dataset,
    train,
)
from visarch.checkpoint import load_bytes, save_bytes
from visarch.fp16 import scores_f16
from visarch.tensor import Tensor

FAMILIES = ["deit_s", "net1", "net2", "net3", "net4", "net5", "net6", "net7",
            "resnet50_shape", "visformer_s", "visformer_ti",
            "visformer_v2_s", "visformer_v2_ti"]

# target complexity at 224x224 in GMACs, with per-entry relative tolerance
MAC_TARGETS = {
    "deit_s": (4.60, 0.03), "net1": (4.57, 0.03), "net2": (4.77, 0.03),
    "net3": (4.79, 0.03), "net4": (4.79, 0.03), "net5": (4.76, 0.03),
    "net6": (4.76, 0.03), "net7": (4.83, 0.08), "visformer_ti": (1.3, 0.03),
    "visformer_s": (4.9, 0.03), "visformer_v2_ti": (1.3, 0.03),
    "visformer_v2_s": (4.3, 0.03), "resnet50_shape": (4.09, 0.03),
}

# target parameter counts in millions; net3-net6 share a banded target
PARAM_TARGETS = {
    "deit_s": (22.1, 0.03), "net1": (22.0, 0.03), "net2": (23.9, 0.03),
    "visformer_s": (40.2, 0.03), "visformer_ti": (10.3, 0.03),
    "visformer_v2_s": (23.6, 0.03), "visformer_v2_ti": (9.4, 0.03),
    "resnet50_shape": (25.6, 0.02),
}
PARAM_BAND = {"net3": (39.0, 39.5), "net4": (39.0, 39.5),
              "net5": (39.0, 39.5), "net6": (39.0, 39.5)}


def report(num, label, problems):
    ok = not problems
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {problems}"


def test_criterion_1_mac_totals():
    problems = []
    for name, (target, tol) in MAC_TARGETS.items():
        got = complexity_report(preset(name)).total_macs / 1e9
        if abs(got - target) / target > tol:
            problems.append(f"{name}: {got:.3f}G vs {target}G")
    report(1, "MAC totals within tolerance for all 13 presets", problems)


def test_criterion_2_param_totals():
    problems = []
    for name, (target, tol) in PARAM_TARGETS.items():
        got = complexity_report(preset(name)).total_params / 1e6
        if abs(got - target) / target > tol:
            problems.append(f"{name}: {got:.2f}M vs {target}M")
    for name, (lo, hi) in PARAM_BAND.items():
        got = complexity_report(preset(name)).total_params / 1e6
        if not lo * 0.92 <= got <= hi * 1.08:
            problems.append(f"{name}: {got:.2f}M outside [{lo}, {hi}] +-8%")
    report(2, "parameter totals within tolerance", problems)


def test_criterion_3a_gradcheck_every_family():
    problems = []
    for name in FAMILIES:
        rep = gradcheck(f"{name}-micro", tolerance=1e-4,
                        samples_per_param=1, batch=2)
        print(f"  {name}-micro worst rel {rep.worst.rel:.2e} at "
              f"{rep.worst.path}[{rep.worst.index}]")  # the margin left against 1e-4
        if not rep.passed:
            problems.append(f"{name}-micro worst rel {rep.worst.rel:.2e}")
    report("3a", "gradients match finite differences at 1e-4 in all families",
           problems)


def test_criterion_3b_training_beats_linear_probe():
    train_set = synth_dataset(10, 50, 32, seed=7)
    eval_set = synth_dataset(10, 20, 32, seed=8)

    def ce(logits, y):
        z = logits - logits.max(1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(1, keepdims=True))
        return float(-logp[np.arange(len(y)), y].mean())

    # linear probe baseline: full-batch momentum descent on standardized
    # pixels, run to convergence (it interpolates the training set)
    X = train_set.images.reshape(len(train_set), -1).astype(np.float64)
    y = train_set.labels
    mu, sd = X.mean(0), X.std(0) + 1e-8
    Xs = (X - mu) / sd
    W = np.zeros((Xs.shape[1], 10))
    b = np.zeros(10)
    vW, vb = np.zeros_like(W), np.zeros_like(b)
    onehot = np.eye(10)[y]
    for _ in range(800):
        logits = Xs @ W + b
        z = np.exp(logits - logits.max(1, keepdims=True))
        p = z / z.sum(1, keepdims=True)
        g = (p - onehot) / len(y)
        vW = 0.9 * vW + Xs.T @ g
        vb = 0.9 * vb + g.sum(0)
        W -= 0.5 * vW
        b -= 0.5 * vb
    Xe = (eval_set.images.reshape(len(eval_set), -1).astype(np.float64) - mu) / sd
    probe_ce = ce(Xe @ W + b, eval_set.labels)

    cfg = TrainConfig(preset="visformer_ti-micro", epochs=20, batch_size=50,
                      optimizer="adamw", base_lr=0.02, weight_decay=0.01, seed=5)
    result = train(cfg, train_set)
    logits = model_forward(result.model, eval_set.images,
                           training=False).data.astype(np.float64)
    model_ce = ce(logits, eval_set.labels)

    problems = []
    if max(result.accuracies) <= 0.9:
        problems.append(f"train accuracy peaked at {max(result.accuracies):.3f}")
    if model_ce >= probe_ce:
        problems.append(f"model eval CE {model_ce:.3f} vs probe {probe_ce:.3f}")
    report("3b", f"micro model beats the pixel probe held out "
           f"({model_ce:.3f} vs {probe_ce:.3f} CE)", problems)


def test_criterion_4_ladder_steps_are_isolated():
    expected = [
        ("deit_s", "net1", {"head"}),
        ("net1", "net2", {"stem", "embeddings"}),
        ("net2", "net3", {"blocks"}),
        ("net3", "net4", {"norm"}),
        ("net4", "net5", {"mlp_conv"}),
        ("net5", "net6", {"position"}),
        ("net6", "net7", {"blocks"}),
    ]
    problems = []
    for a, b, want in expected:
        got = diff_configs(preset(a), preset(b))
        if got != want:
            problems.append(f"{a}->{b}: {sorted(got)} != {sorted(want)}")
    report(4, "each ladder step changes exactly its own component", problems)


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(505)
    problems = []

    def check(label, diffs, tol):
        worst = max(diffs)
        if worst >= tol:
            problems.append(f"{label}: worst {worst:.2e} >= {tol}")

    # patch embedding == flatten patches + shared linear map
    diffs = []
    for _ in range(100):
        n, c, k = rng.integers(1, 3), int(rng.integers(1, 5)), int(rng.choice([2, 4]))
        m, kk = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        x = rng.normal(size=(n, c, m * k, m * k))
        w = rng.normal(size=(kk, c, k, k))
        b = rng.normal(size=kk)
        conv = tz.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=k).data
        patches = x.reshape(n, c, m, k, m, k).transpose(0, 2, 4, 1, 3, 5)
        ref = patches.reshape(n, m, m, -1) @ w.reshape(kk, -1).T + b
        diffs.append(np.abs(conv - ref.transpose(0, 3, 1, 2)).max())
    check("patch embed vs linear", diffs, 1e-6)

    # grouped convolution == concatenated dense convolutions per group
    diffs = []
    for _ in range(100):
        g = int(rng.choice([1, 2, 4]))
        cpg, kpg = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k, s, p = int(rng.choice([1, 3])), int(rng.choice([1, 2])), int(rng.choice([0, 1]))
        n, h = int(rng.integers(1, 3)), int(rng.integers(4, 8))
        x = rng.normal(size=(n, g * cpg, h, h))
        w = rng.normal(size=(g * kpg, cpg, k, k))
        b = rng.normal(size=g * kpg)
        whole = tz.conv2d(Tensor(x), Tensor(w), Tensor(b),
                          stride=s, padding=p, groups=g).data
        parts = [tz.conv2d(Tensor(x[:, i * cpg:(i + 1) * cpg]),
                           Tensor(w[i * kpg:(i + 1) * kpg]),
                           Tensor(b[i * kpg:(i + 1) * kpg]),
                           stride=s, padding=p).data for i in range(g)]
        diffs.append(np.abs(whole - np.concatenate(parts, axis=1)).max())
    check("group conv vs concat", diffs, 1e-6)

    # linear layer == 1x1 convolution
    diffs = []
    for _ in range(100):
        n, c, kk, h = (int(rng.integers(1, 3)), int(rng.integers(1, 9)),
                       int(rng.integers(1, 9)), int(rng.integers(2, 7)))
        x = rng.normal(size=(n, c, h, h))
        w = rng.normal(size=(kk, c))
        b = rng.normal(size=kk)
        conv = tz.conv2d(Tensor(x), Tensor(w.reshape(kk, c, 1, 1)), Tensor(b)).data
        lin = tz.linear(Tensor(x.transpose(0, 2, 3, 1).reshape(-1, c)),
                        Tensor(w), Tensor(b)).data
        lin = lin.reshape(n, h, h, kk).transpose(0, 3, 1, 2)
        diffs.append(np.abs(conv - lin).max())
    check("linear vs 1x1 conv", diffs, 1e-6)

    # post-product scaling == pre-scaling queries and keys, in float32
    diffs = []
    for _ in range(100):
        heads, t, d = (int(rng.integers(1, 5)), int(rng.integers(2, 17)),
                       int(rng.choice([8, 16, 32, 64])))
        q = rng.normal(size=(1, heads, t, d)).astype(np.float32)
        k = rng.normal(size=(1, heads, t, d)).astype(np.float32)
        a = attention_logits(Tensor(q), Tensor(k), "standard").data
        p = attention_logits(Tensor(q), Tensor(k), "prenorm").data
        diffs.append(np.abs(a - p).max())
    check("standard vs prenorm logits", diffs, 1e-5)

    # fully normalized logits == standard logits / sqrt(d)
    diffs = []
    for _ in range(100):
        heads, t, d = (int(rng.integers(1, 5)), int(rng.integers(2, 17)),
                       int(rng.choice([8, 16, 32, 64])))
        q = rng.normal(size=(1, heads, t, d))
        k = rng.normal(size=(1, heads, t, d))
        a = attention_logits(Tensor(q), Tensor(k), "standard").data
        f = attention_logits(Tensor(q), Tensor(k), "fullnorm").data
        diffs.append(np.abs(f - a / np.sqrt(d)).max())
    check("fullnorm vs standard/sqrt(d)", diffs, 1e-6)

    report(5, "all five computational equivalences hold on 100 instances each",
           problems)


def test_criterion_6_half_precision_overflow():
    problems = []

    def overflows(mode, mag):
        q = np.full((4, 64), float(mag))
        k = np.full((4, 64), float(mag))
        _, _, rep = scores_f16(q, k, mode)
        return rep.overflow_count > 0

    if not overflows("standard", 32):
        problems.append("standard survived magnitude 32 at width 64")
    if overflows("prenorm", 32):
        problems.append("prenorm overflowed at magnitude 32")
    if not overflows("prenorm", 128):
        problems.append("prenorm survived magnitude 128")
    for mode in ("fullnorm", "pb_relax"):
        if overflows(mode, 32) or overflows(mode, 128):
            problems.append(f"{mode} overflowed on a crafted instance")

    rng = np.random.default_rng(2024)
    trials = 0
    for d in (8, 64, 300, 1024):
        q = rng.uniform(-255.0, 255.0, (50, d))
        k = rng.uniform(-255.0, 255.0, (50, d))
        _, _, rep = scores_f16(q, k, "fullnorm")
        trials += rep.tokens * rep.tokens
        if rep.overflow_count:
            problems.append(f"fullnorm overflowed in the random box at d={d}")
    if trials < 10_000:
        problems.append(f"only {trials} random trials")
    report(6, f"overflow behavior matches per mode ({trials} box trials)",
           problems)


def test_criterion_7_determinism_and_persistence():
    problems = []
    for name, seed in (("visformer_ti-micro", 0), ("deit_s-micro", 3)):
        a, b = build(preset(name), seed=seed), build(preset(name), seed=seed)
        same = all(ta.data.tobytes() == b.params[p].data.tobytes()
                   for p, ta in a.params.items())
        if not same:
            problems.append(f"rebuild of {name} changed bits")

    model = build(preset("visformer_ti-micro"), seed=1)
    blob = save_bytes(model, extra={"seed": 1})
    loaded = load_bytes(blob)
    for path, t in model.params.items():
        if loaded["tensors"][f"param.{path}"].tobytes() != t.data.tobytes():
            problems.append(f"param {path} not bit-exact after round trip")
            break
    for path, arr in model.buffers.items():
        if loaded["tensors"][f"buffer.{path}"].tobytes() != arr.tobytes():
            problems.append(f"buffer {path} not bit-exact after round trip")
            break
    if save_bytes(model, extra={"seed": 1}) != blob:
        problems.append("second save produced different bytes")

    x = np.random.default_rng(7).normal(size=(4, 3, 32, 32)).astype(np.float32)
    one = model_forward(model, x, training=False).data.tobytes()
    two = model_forward(model, x, training=False).data.tobytes()
    if one != two:
        problems.append("eval forward not bit-reproducible")
    report(7, "builds, checkpoints, and eval forwards are bit-stable", problems)
