"""Software emulation of IEEE binary16 attention-score arithmetic.

Why: half precision stores at most 65504, and the raw q.k dot products of
wide heads overflow it long before the softmax would saturate. This module
reproduces half-precision behavior exactly (round-to-nearest-even on every
intermediate, sequential accumulation in ascending index order) so the four
score scalings can be compared without half-precision hardware.

Every rounding in the score pipeline is the one numpy float16 cast in _rne16.
The exact reference compare_modes measures against is the engine's own: the
float64 logits of attention.attention_logits and tensor.softmax over them, so
the lab and the models share one definition of each score mode and one
softmax. PB-relax's alpha is attention.PB_RELAX_ALPHA in both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .attention import PB_RELAX_ALPHA, SCORE_MODES, attention_logits
from .tensor import Tensor, softmax


def _rne16(arr: np.ndarray) -> np.ndarray:
    """arr rounded to binary16 by numpy's float16 cast (nearest, ties to even,
    +-inf from |x| >= 65520 on) and returned as float64."""
    with np.errstate(over="ignore"):
        return np.float16(arr).astype(np.float64)


@dataclass
class OverflowReport:
    mode: str
    d: int
    tokens: int
    max_abs_input: float
    max_abs_logit: float | None  # over finite logits; None if every logit overflowed
    overflow_count: int
    softmax_valid: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _dot_f16(q: np.ndarray, kt: np.ndarray) -> np.ndarray:
    """(..., T, d) x (..., d, T) matmul with every product and partial sum
    rounded to binary16, accumulating in ascending index order."""
    d = q.shape[-1]
    acc = np.zeros(q.shape[:-1] + (kt.shape[-1],))
    for i in range(d):
        prod = _rne16(q[..., i, None] * kt[..., i, :])
        acc = _rne16(acc + prod)
    return acc


def _softmax_f16(logits: np.ndarray) -> np.ndarray:
    """Row softmax with every intermediate rounded to binary16."""
    m = logits.max(axis=-1, keepdims=True)
    z = _rne16(logits - m)
    e = _rne16(np.exp(z))
    s = np.zeros(e.shape[:-1] + (1,))
    for i in range(e.shape[-1]):
        s = _rne16(s + e[..., i, None])
    return _rne16(e / s)


def scores_f16(q: np.ndarray, k: np.ndarray, mode: str = "standard"):
    """Emulated half-precision attention scores for (T, d) queries/keys.

    Returns (logits, softmax_or_None, OverflowReport). Logits are float64
    values exactly representable in binary16, infinite (or NaN) where the
    pipeline overflowed, which no numpy warning reports. softmax_valid is
    False iff any logit is non-finite, max_abs_logit None iff all are. q and k
    must be finite with at least one token and one channel; they become
    float64 under Tensor's dtype rule (a float64 array is not copied, a
    complex, bool, object or string one raises ShapeError).
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode '{mode}'")
    q, k = Tensor(q, dtype=np.float64).data, Tensor(k, dtype=np.float64).data
    if q.ndim != 2 or q.shape != k.shape:
        raise ValueError(f"expected matching (T, d) arrays, got {q.shape} and {k.shape}")
    t, d = q.shape
    if t < 1 or d < 1:
        raise ValueError(f"q and k need at least one token and one channel, got {q.shape}")
    for name, arr in (("q", q), ("k", k)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has a non-finite entry")
    # an overflow gives inf, and inf - inf (an overflowed pb_relax row's shift) NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "standard":
            qs, ks = _rne16(q), _rne16(k)
            logits = _rne16(_dot_f16(qs, ks.T) * _rne16(np.float64(1.0 / np.sqrt(d))))
        elif mode in ("prenorm", "fullnorm"):
            s = d ** (-0.25 if mode == "prenorm" else -0.5)
            logits = _dot_f16(_rne16(q * s), _rne16(k * s).T)
        else:  # pb_relax
            qs = _rne16(q / (PB_RELAX_ALPHA * np.sqrt(d)))
            raw = _dot_f16(qs, _rne16(k).T)
            shifted = _rne16(raw - raw.max(axis=-1, keepdims=True))
            logits = _rne16(shifted * PB_RELAX_ALPHA)
    finite = np.isfinite(logits)
    report = OverflowReport(
        mode=mode, d=d, tokens=t,
        max_abs_input=float(np.abs([q, k]).max()),
        max_abs_logit=float(np.abs(logits[finite]).max()) if finite.any() else None,
        overflow_count=int((~finite).sum()),
        softmax_valid=bool(finite.all()),
    )
    probs = _softmax_f16(logits) if report.softmax_valid else None
    return logits, probs, report


def exact_logits(q: np.ndarray, k: np.ndarray, mode: str) -> np.ndarray:
    """Float64 reference logits of a score mode for (T, d) queries/keys: the
    engine's attention_logits on (1, 1, T, d) views. prenorm's reference is
    standard's logits, which it equals in exact arithmetic."""
    return attention_logits(Tensor(q[None, None], dtype=np.float64),
                            Tensor(k[None, None], dtype=np.float64),
                            "standard" if mode == "prenorm" else mode).data[0, 0]


def compare_modes(q: np.ndarray, k: np.ndarray) -> dict:
    """Run every score mode on the same inputs. Divergence is the max absolute
    difference between the emulated softmax and tensor.softmax of that mode's
    float64 exact_logits (None when the emulation overflowed; then no reference runs)."""
    q, k = Tensor(q, dtype=np.float64).data, Tensor(k, dtype=np.float64).data
    out = {}
    for mode in SCORE_MODES:
        _, probs, report = scores_f16(q, k, mode)
        divergence = None
        if probs is not None:
            ref = softmax(Tensor(exact_logits(q, k, mode))).data
            divergence = float(np.abs(probs - ref).max())
        out[mode] = {"report": report, "softmax_divergence": divergence}
    return out
