"""Multi-head self-attention on NCHW maps, and attention logits with selectable score scaling.

Token sequences reuse the same code path as spatial maps by shaping them as
(N, C, T, 1). mhsa_forward never leaves that layout: one 1x1 conv through the
stacked w_qkv gives (N, heads, head_dim, T) queries, keys and values, the
scores run on their transposed views, and a 1x1 conv projects the output, as
in the MLP. Models run the standard scores; the other modes of
attention_logits exist to control the dynamic range of the logits:

- standard: (q . k) / sqrt(d)
- prenorm:  (q / d^0.25) . (k / d^0.25), same logits with bounded partials
- fullnorm: (q / sqrt(d)) . (k / sqrt(d)), equals standard scaled by 1/sqrt(d)
- pb_relax: q pre-scaled by 1/(alpha*sqrt(d)), row max subtracted after the
  dot product, then multiplied back by alpha; shift-invariant under softmax.
  alpha is the constant PB_RELAX_ALPHA = 32 (CogView's PB-relax)

fp16's binary16 lab emulates the same four modes and takes its float64
reference logits from attention_logits.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .tensor import ShapeError, Tensor

SCORE_MODES = ("standard", "prenorm", "fullnorm", "pb_relax")
PB_RELAX_ALPHA = 32.0


def attention_logits(q: Tensor, k: Tensor, mode: str = "standard") -> Tensor:
    """Scaled scores for (N, heads, T, d) queries/keys; returns (N, heads, T, T)."""
    if q.shape != k.shape or len(q.shape) != 4:
        raise ShapeError(f"queries/keys must share a (N, heads, T, d) shape, got {q.shape} vs {k.shape}")
    d = q.shape[-1]
    kt = tz.transpose(k, (0, 1, 3, 2))
    if mode == "standard":
        return tz.scale(tz.matmul(q, kt), 1.0 / np.sqrt(d))
    if mode in ("prenorm", "fullnorm"):
        s = d ** (-0.25 if mode == "prenorm" else -0.5)
        return tz.matmul(tz.scale(q, s), tz.scale(kt, s))
    if mode == "pb_relax":
        p = tz.matmul(tz.scale(q, 1.0 / (PB_RELAX_ALPHA * np.sqrt(d))), kt)
        return tz.scale(tz.sub(p, tz.reduce_max(p, axis=-1)), PB_RELAX_ALPHA)
    raise ValueError(f"unknown score mode '{mode}'")


def rel_pos_index(height: int, width: int) -> np.ndarray:
    """(T, T) map from token pairs to rows of a (2H-1)(2W-1) offset table."""
    ys, xs = np.divmod(np.arange(height * width), width)
    dy = ys[:, None] - ys[None, :] + height - 1
    dx = xs[:, None] - xs[None, :] + width - 1
    return dy * (2 * width - 1) + dx


def rel_pos_bias(table: Tensor, height: int, width: int) -> Tensor:
    """(heads, T, T) additive logit bias from a ((2H-1)(2W-1), heads) table of
    learned biases, one row per relative (dy, dx) offset."""
    rows = (2 * height - 1) * (2 * width - 1)
    if len(table.shape) != 2 or table.shape[0] != rows:
        raise ShapeError(f"bias table must have {rows} rows, got {table.shape}")
    return tz.transpose(tz.gather_rows(table, rel_pos_index(height, width)), (2, 0, 1))


def mhsa_forward(x: Tensor, w_qkv: Tensor, b_qkv: Tensor, w_proj: Tensor, b_proj: Tensor,
                 heads: int, *, bias: Tensor | None = None) -> Tensor:
    """Self-attention with standard scores over the spatial positions of an (N, C, H, W) map.

    w_qkv stacks the query/key/value projections: (3*inner, C, 1, 1), with
    inner = heads * head_dim; w_proj is (C, inner, 1, 1). conv2d checks the rest.
    bias, if given, is added to the logits and must be (heads, T, T), T = H*W.
    """
    n, c, h, w = x.shape
    rows = w_qkv.shape[0]
    if heads < 1 or rows < 3 * heads or rows % (3 * heads):
        raise ShapeError(f"w_qkv rows must be a positive multiple of 3*{heads} heads, got {w_qkv.shape}")
    if w_qkv.shape[2:] != (1, 1) or w_proj.shape[2:] != (1, 1):
        raise ShapeError(f"w_qkv and w_proj must be 1x1 kernels, got {w_qkv.shape} and {w_proj.shape}")
    if w_proj.shape[0] != c:
        raise ShapeError(f"w_proj must give the input's {c} channels, got {w_proj.shape}")
    t = h * w
    if bias is not None and bias.shape != (heads, t, t):
        raise ShapeError(f"attention bias must be ({heads}, {t}, {t}), got {bias.shape}")
    # w_qkv's rows are the q, k and v heads in turn: split one projection by head
    qkv = tz.reshape(tz.conv2d(x, w_qkv, b_qkv), (n, 3 * heads, rows // (3 * heads), t))
    q, k, v = (tz.narrow(qkv, 1, part * heads, heads) for part in range(3))
    logits = attention_logits(tz.transpose(q, (0, 1, 3, 2)), tz.transpose(k, (0, 1, 3, 2)))
    if bias is not None:
        logits = tz.add(logits, bias)
    attn = tz.softmax(logits, axis=-1)
    out = tz.matmul(v, tz.transpose(attn, (0, 1, 3, 2)))  # (N, heads, head_dim, T)
    return tz.conv2d(tz.reshape(out, (n, rows // 3, h, w)), w_proj, b_proj)
