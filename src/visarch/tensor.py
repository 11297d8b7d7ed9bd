"""NCHW tensor core: float32/float64 storage, reverse-mode autodiff, layer ops.

Every compute op checks its forward output for NaN/Inf and raises NonFiniteError
naming the innermost layer_scope, so a blow-up points at a layer instead of a
loss=nan. The shape ops (reshape, transpose, narrow, concat, batch_tile) only
move values, so they skip the check: a non-finite leaf they carry raises at the
next compute op.
Gradients accumulate into leaf .grad across backward() calls until cleared.
A graph is single-use: backward() frees each node as it walks it, so a second
backward() through any node of that graph raises GraphError; run the forward
again for another gradient.
requires_grad is the one needs-a-gradient test: leaves (ParamStore entries)
set it, and every recorded node, the only kind with a _backward, has it.

check_count is the package's one rule for an integer argument, check_positive
for a positive real one, check_flag for a bool one, and Tensor's constructor
for an array's dtype. conv2d and max_pool2d share one window rule: out_size
(which layer_plan also uses for every spatial shape, and which check_counts
the stride and padding), one gather over a padded (C, H, W, n) map and its
adjoint scatter.
conv2d runs a 1x1, unpadded, ungrouped kernel as one channel GEMM on NCHW.
Every other kernel runs in batch tiles, each as many images as keep its im2col
under _TILE_BYTES: the tile is copied with the batch axis innermost, so each
window row moves n contiguous values, and its windows channel-major, one
(Cpg*kh*kw, Ho*Wo*n) matrix per group; a 1-image tile's GEMM writes straight
into its NCHW slice, so batch 1 makes no extra copy. The backward gathers each
tile's im2col again, as max_pool2d its windows, so a node holds no im2col.
max_pool2d is a running maximum over the window slices. Every sum over the
(N, H, W) axes of a map, or over its channels, is one einsum (_csum): the norm
statistics and gradients and conv2d's one bias gradient. layer_norm and
train-mode batch_norm share one normalise-and-affine kernel: one centred copy
gives the two-pass variance and is scaled into xhat in place; the backward
builds xhat again from the kept mean and istd, and takes its stat-axis means
from dbeta and dgamma where it can (batch_norm).
With fixed (eval) statistics batch_norm is one per-channel scale and shift.
softmax runs in one buffer, its backward sums dout * y in one einsum, and
gelu's backward is built in one buffer plus a temporary.
Under no_grad ops record no graph, so backward() on their result raises.
The private _grouped(n) runs under no_grad, and a batch is consecutive groups
of n independent samples, each computed with the bits a forward of that group
alone gives (gradcheck stacks its probes this way); outside it nothing changes.
An op's axis goes through one rule (_axis): an integer in [-rank, rank), and
for a reduction (softmax, reduce_max, global_avg_pool's H and W, layer_norm's
channels) an axis with at least one entry. conv2d, linear and train-mode
batch_norm take a batch of at least one sample (_group_size).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


class NonFiniteError(ArithmeticError):
    pass


_SCOPE: list[str] = []
_GRAD_ENABLED = [True]
_GROUP = [0]  # samples per group under _grouped; 0: the batch is one group


@contextmanager
def layer_scope(name: str):
    """Push a name onto the diagnostic scope stack for NonFiniteError messages."""
    _SCOPE.append(name)
    try:
        yield
    finally:
        _SCOPE.pop()


def current_scope() -> str:
    return ".".join(_SCOPE) or "<top>"


@contextmanager
def no_grad():
    """Disable graph recording (pure inference paths)."""
    old = _GRAD_ENABLED[0]
    _GRAD_ENABLED[0] = False
    try:
        yield
    finally:
        _GRAD_ENABLED[0] = old


@contextmanager
def _grouped(n: int):
    """Run a batch as consecutive groups of n independent samples, each with the
    bits a forward of that group alone gives: train-mode batch_norm takes its
    statistics per group and leaves its running buffers alone, no k x k conv2d
    tile crosses a group boundary, and linear runs one GEMM per group. Every
    other op already works per sample, or per sample and head. This path has no
    backward, so it runs under no_grad and records nothing; an op whose batch is
    not a multiple of n raises ShapeError."""
    n = check_count("group size", n, 1, ShapeError)
    old = _GROUP[0]
    _GROUP[0] = n
    try:
        with no_grad():
            yield
    finally:
        _GROUP[0] = old


def _group_size(op: str, shape: tuple) -> int:
    """The samples per group of a batch of this shape: _grouped's n, or the whole
    batch outside it. An empty batch raises ShapeError naming op and shape."""
    batch = shape[0]
    if batch == 0:
        raise ShapeError(f"{op} needs a batch of at least one sample, got shape {shape}")
    n = _GROUP[0] or batch
    if batch % n:
        raise ShapeError(f"{op}: batch {batch} is not a whole number of groups of {n}")
    return n


class Tensor:
    """A rank<=4 float array plus an optional grad and autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            if arr.dtype.kind not in "iuf":  # astype drops imaginary parts, reads bools as 0/1
                raise ShapeError(f"tensor data must be an integer or floating type, got {arr.dtype}")
            arr = arr.astype(np.float32 if dtype is None else dtype)
        elif dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if arr.ndim > 4:
            raise ShapeError(f"rank {arr.ndim} exceeds the rank-4 limit")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _check_finite(arr, op: str):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced a non-finite value at '{current_scope()}'")


def _result(op, data, parents, backward_fn):
    """A compute op's output: checked for NaN/Inf, then recorded."""
    _check_finite(data, op)
    return _record(data, parents, backward_fn)


def _record(data, parents, backward_fn):
    """An op's output with its graph node, recorded if grad is enabled and a
    parent needs a gradient; shape ops call this directly, since they only move
    values the op that made them already checked."""
    out = Tensor(data)
    if _GRAD_ENABLED[0] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _csum(a, b=None, *, keep: str = "c"):
    """The sum of an NCHW map a, or of a * b, over every axis but keep's, in one
    einsum on the 4-d arrays as they are: no product temporary and no
    contiguous copy. keep "c" gives per-channel sums (C,), "nhw" sums over the
    channels (N, H, W). A (G, n, C, H, W) view of a map keeps its group axis
    too: "c" gives (G, C). A numpy sum over the N, H and W axes is 4-8x slower
    at the shapes the micro models train on."""
    axes = "nchw" if a.ndim == 4 else "gnchw"
    keep = axes[:a.ndim - 4] + keep
    if b is None:
        return np.einsum(f"{axes}->{keep}", a)
    return np.einsum(f"{axes},{axes}->{keep}", a, b)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural ops


def _broadcast(op: str, ufunc, x: Tensor, y: Tensor):
    """ufunc(x.data, y.data), or ShapeError naming op and both shapes if numpy
    cannot broadcast them (the cost of the check is only that of the try)."""
    try:
        return ufunc(x.data, y.data)
    except ValueError:
        raise ShapeError(f"{op} needs shapes that broadcast, got {x.data.shape} and "
                         f"{y.data.shape}") from None


def add(x: Tensor, y: Tensor) -> Tensor:
    data = _broadcast("add", np.add, x, y)

    def bwd(dout):
        return _unbroadcast(dout, x.data.shape), _unbroadcast(dout, y.data.shape)

    return _result("add", data, (x, y), bwd)


def add_residual(x: Tensor, y: Tensor) -> Tensor:
    if x.data.shape != y.data.shape:
        raise ShapeError(f"residual add needs equal shapes, got {x.data.shape} vs {y.data.shape}")
    return add(x, y)


def sub(x: Tensor, y: Tensor) -> Tensor:
    data = _broadcast("sub", np.subtract, x, y)

    def bwd(dout):
        return _unbroadcast(dout, x.data.shape), _unbroadcast(-dout, y.data.shape)

    return _result("sub", data, (x, y), bwd)


def mul(x: Tensor, y: Tensor) -> Tensor:
    data = _broadcast("mul", np.multiply, x, y)

    def bwd(dout):
        return (_unbroadcast(dout * y.data, x.data.shape),
                _unbroadcast(dout * x.data, y.data.shape))

    return _result("mul", data, (x, y), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(dout):
        return (dout * c,)

    return _result("scale", x.data * c, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN input stays NaN, so _result names the scope it reached."""
    xd = x.data

    def bwd(dout):
        return (dout * (xd > 0),)

    return _result("relu", np.maximum(xd, 0), (x,), bwd)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    xd = x.data
    # products, not float pow: a float32 x ** 3 costs ~90x more than x * x * x;
    # the tanh argument is built in one buffer, in the order of the formula
    t = xd * xd
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= xd
    out *= 0.5

    def bwd(dout):
        # 0.5 * (1 + t + x * du * (1 - t^2)), du = c * (1 + 3 * 0.044715 * x^2) the
        # tanh argument's derivative, built in g with one temporary for x * du * t^2
        g = xd * xd
        g *= 3 * 0.044715 * _GELU_C
        g += _GELU_C
        g *= xd
        s = g * t
        s *= t
        g -= s
        g += t
        g += 1.0
        g *= 0.5
        g *= dout
        return (g,)

    return _result("gelu", out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    """x's values in the given shape, every size an integer >= 0 (check_count)."""
    shape = tuple(check_count("reshape size", s, 0, ShapeError) for s in shape)
    old = x.data.shape
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"cannot reshape {old} to {shape}")

    def bwd(dout):
        return (dout.reshape(old),)

    return _record(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, perm) -> Tensor:
    """x with its axes reordered as perm, a permutation of range(x's rank)."""
    perm = tuple(perm)
    axes = range(x.data.ndim)
    if sorted(perm) != list(axes):
        raise ShapeError(f"transpose perm must be a permutation of the {x.data.ndim} axes "
                         f"of {x.data.shape}, got {perm}")
    inv = tuple(sorted(axes, key=perm.__getitem__))

    def bwd(dout):
        return (dout.transpose(inv),)

    return _record(x.data.transpose(perm), (x,), bwd)


def _axis(op: str, axis, shape: tuple, nonempty: bool = False) -> int:
    """axis counted from 0 if it is an integer in [-ndim, ndim) (a negative one
    counts from the end), else ShapeError naming op, the axis and the rank.
    With nonempty (a reduction over it) the axis must hold at least one entry."""
    ndim = len(shape)
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or not -ndim <= axis < ndim:
        raise ShapeError(f"{op} axis must be an integer in [-{ndim}, {ndim}) for a rank-{ndim} "
                         f"tensor, got {axis!r}")
    axis = int(axis) % ndim
    if nonempty and shape[axis] == 0:
        raise ShapeError(f"{op} over axis {axis} needs at least one entry, got shape {shape}")
    return axis


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    first = tensors[0].data.shape
    axis = _axis("concat", axis, first)
    for t in tensors[1:]:
        shape = t.data.shape
        if len(shape) != len(first) or shape[:axis] + shape[axis + 1:] != first[:axis] + first[axis + 1:]:
            raise ShapeError(f"concat along axis {axis} needs equal ranks and equal sizes off "
                             f"that axis, got {first} and {shape}")
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(dout):
        return tuple(np.split(dout, splits, axis=axis))

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """x[start:start + length] along axis; start and length are integers >= 0."""
    axis = _axis("narrow", axis, x.data.shape)
    start = check_count("narrow start", start, 0, ShapeError)
    length = check_count("narrow length", length, 0, ShapeError)
    if start + length > x.data.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range on axis {axis}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(dout):
        dx = np.zeros_like(x.data)
        dx[idx] = dout
        return (dx,)

    return _record(x.data[idx].copy(), (x,), bwd)


def batch_tile(x: Tensor, n: int) -> Tensor:
    """Tile a parameter over a new leading batch axis of size n, an integer >= 1."""
    n = check_count("batch_tile n", n, 1, ShapeError)

    def bwd(dout):
        return (dout.sum(axis=0),)

    return _record(np.broadcast_to(x.data, (n,) + x.data.shape).copy(), (x,), bwd)


def gather_rows(table: Tensor, index) -> Tensor:
    """out[i, j] = table[index[i, j]] for a 2-d map of integer indices in [0, rows)."""
    index = np.asarray(index)
    if table.data.ndim != 2 or index.ndim != 2:
        raise ShapeError("gather_rows expects a 2-d table and a 2-d index map")
    rows = table.data.shape[0]
    if not np.issubdtype(index.dtype, np.integer):
        raise ShapeError(f"gather_rows index must hold integers, got {index.dtype}")
    if index.size and not (index.min() >= 0 and index.max() < rows):
        raise ShapeError(f"gather_rows index must be in [0, {rows}) for a {rows}-row table, "
                         f"got {index.min()} to {index.max()}")

    def bwd(dout):
        dt = np.zeros_like(table.data)
        np.add.at(dt, index, dout)
        return (dt,)

    return _result("gather_rows", table.data[index], (table,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim or ad.ndim < 2:
        raise ShapeError(f"matmul rank mismatch: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2] or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")

    def bwd(dout):
        return (dout @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ dout)

    return _result("matmul", ad @ bd, (a, b), bwd)


def reduce_max(x: Tensor, axis: int = -1) -> Tensor:
    """Max over one axis, keepdims. Gradient splits equally among ties."""
    axis = _axis("reduce_max", axis, x.data.shape, nonempty=True)
    m = x.data.max(axis=axis, keepdims=True)
    mask = (x.data == m)

    def bwd(dout):
        counts = mask.sum(axis=axis, keepdims=True)
        return (dout * mask / counts,)

    return _result("reduce_max", m, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    def bwd(dout):
        return (np.broadcast_to(dout, x.data.shape).copy(),)

    return _result("sum_all", np.asarray(x.data.sum()), (x,), bwd)


# ---------------------------------------------------------------------------
# layer ops


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w.T (+ b) for (N, din) input and a (dout, din) weight: the
    classifier head. Every other dense layer is a 1x1 conv2d on the NCHW map.
    One GEMM per _grouped group: dgemm's bits depend on the row count."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise ShapeError(f"linear expects rank-2 input and weight, got {xd.shape}, {wd.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"linear feature mismatch: input {xd.shape[1]} vs weight {wd.shape}")
    if b is not None and b.shape != (wd.shape[0],):
        raise ShapeError(f"linear bias must be ({wd.shape[0]},), got {b.shape}")
    n = _group_size("linear", xd.shape)
    data = (xd @ wd.T if n == xd.shape[0] else
            np.concatenate([xd[a:a + n] @ wd.T for a in range(0, xd.shape[0], n)]))
    if b is not None:
        data = data + b.data
    parents = (x, w) if b is None else (x, w, b)

    def bwd(dout):
        dx = (dout @ wd) if x.requires_grad else None
        if b is None:
            return dx, dout.T @ xd
        return dx, dout.T @ xd, dout.sum(axis=0)

    return _result("linear", data, parents, bwd)


def check_count(name: str, value, floor: int, error=ValueError) -> int:
    """value as a Python int if it is an int or numpy integer (a bool is not) >= floor,
    else raise `error` naming it. A plain int skips the isinstance tests (hot in out_size)."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, np.integer):
            raise error(f"{name} must be an integer, got {value!r} ({type(value).__name__})")
        value = int(value)
    if value < floor:
        raise error(f"{name} must be >= {floor}, got {value}")
    return value


def check_positive(name: str, value) -> float:
    """value as a Python float if it is a real number (a bool is not), finite and > 0,
    else raise ValueError naming it. A plain float skips the isinstance tests."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a real number, got {value!r} ({type(value).__name__})")
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_flag(name: str, value, error=ValueError) -> bool:
    """value as a Python bool if it is a bool or numpy bool, else raise `error` naming it."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a bool, got {value!r} ({type(value).__name__})")
    return bool(value)


def out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Positions a kernel-wide window visits sliding by stride over size cells
    padded at both ends: the output size of conv2d, max_pool2d and layer_plan.
    stride (>= 1) and padding (>= 0) go through check_count."""
    stride = check_count("stride", stride, 1, ShapeError)
    padding = check_count("padding", padding, 0, ShapeError)
    if size + 2 * padding < kernel:
        raise ShapeError(f"kernel {kernel} larger than padded input {size + 2 * padding}")
    return (size + 2 * padding - kernel) // stride + 1


# Bytes of im2col one k x k conv tile holds: conv2d splits the batch into tiles
# of as many images as fit, and at least one. With 8 MiB the 224 stems, 56x56
# 3x3s and the 28x28 grouped 3x3 tile per image, and a 32x32 train batch of 50
# is one tile per conv; of 1-32 MiB it gave the fastest batch-8 eval convs and
# train steps on a 2-core Xeon. Smaller tiles also mean more, smaller
# allocations, whose fresh pages cost faults.
_TILE_BYTES = 1 << 23


def _padded(xs, p: int, fill: float):
    """A (C, H, W, n) map padded by p cells of `fill` on H and W, as one C-contiguous
    buffer: copied once, unless it already is one and p is 0."""
    if p == 0 and xs.flags.c_contiguous:
        return xs
    C, H, W, n = xs.shape
    xp = np.full((C, H + 2 * p, W + 2 * p, n), fill, dtype=xs.dtype)
    xp[:, p:p + H, p:p + W] = xs
    return xp


def _windows(xp, kh: int, kw: int, s: int, ho: int, wo: int):
    """(C, Ho, Wo, n, kh, kw) read-only view of every window (stride s) of a padded
    (C, Hp, Wp, n) map: the gather behind conv2d and max_pool2d. With the batch
    innermost, each window row is Wo*n contiguous values at stride 1, n at stride 2."""
    return sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, :ho * s:s, :wo * s:s]


def _scatter_windows(dwin, height: int, width: int, s: int, p: int):
    """Adjoint of _windows: sum (C, Ho, Wo, n, kh, kw) window gradients back onto
    the unpadded (C, height, width, n) map they were gathered from."""
    C, ho, wo, n, kh, kw = dwin.shape
    dxp = np.zeros((C, height + 2 * p, width + 2 * p, n), dtype=dwin.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + s * ho:s, j:j + s * wo:s] += dwin[..., i, j]
    return dxp[:, p:p + height, p:p + width] if p else dxp


def _channel_gemm(x: Tensor, w: Tensor, s: int):
    """1x1 convolution, no padding, one group, as (Cout, Cin) @ (N, Cin, Ho*Wo)
    straight on NCHW: no im2col and no transposed copies. Returns the NCHW
    output and its backward, dout -> (dx, dw), for conv2d to record."""
    xd = x.data[:, :, ::s, ::s] if s > 1 else x.data
    N, Cin, Ho, Wo = xd.shape
    xs = xd.reshape(N, Cin, Ho * Wo)  # copies only a strided or non-contiguous input
    wm = w.data.reshape(-1, Cin)

    def grads(dout):
        d = dout.reshape(N, -1, Ho * Wo)
        dw = np.tensordot(d, xs, axes=([0, 2], [0, 2])).reshape(w.data.shape)
        if not x.requires_grad:
            return None, dw
        dxs = (wm.T @ d).reshape(N, Cin, Ho, Wo)
        if s == 1:
            return dxs, dw
        dx = np.zeros(x.data.shape, dtype=dxs.dtype)
        dx[:, :, ::s, ::s] = dxs
        return dx, dw

    return (wm @ xs).reshape(N, -1, Ho, Wo), grads


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-d convolution on NCHW. A 1x1 kernel with no padding and one group is
    one channel GEMM (_channel_gemm). Any other kernel, grouped or not, runs in
    batch tiles, each as many images as keep its im2col under _TILE_BYTES (at
    least one). A tile of n images is padded into a (Cin, Hp, Wp, n) copy with
    the batch innermost, its windows copied channel-major as cols, one
    (Cpg*kh*kw, Ho*Wo*n) matrix per group, and one batched GEMM over the group
    axis gives (Cout, Ho, Wo, n); a 1-image tile is written straight into its
    NCHW slice. Its backward gathers each tile's cols again (the same function,
    the same bits), sums dW over the tiles and scatters each tile's dX in the
    same layout. Either path gives the output and its (dx, dw) backward; conv2d
    alone adds the bias and records. An empty batch raises ShapeError."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input and weight, got {xd.shape}, {wd.shape}")
    if 0 in wd.shape:
        raise ShapeError(f"conv2d weight needs every axis >= 1, got {wd.shape}")
    N, Cin, H, W = xd.shape
    Cout, Cpg, kh, kw = wd.shape
    groups = check_count("groups", groups, 1, ShapeError)
    if Cin % groups or Cout % groups:
        raise ShapeError(f"channels ({Cin} in, {Cout} out) not divisible by groups={groups}")
    if Cpg != Cin // groups:
        raise ShapeError(f"weight expects {Cpg * groups} input channels, got {Cin} (groups={groups})")
    if b is not None and b.shape != (Cout,):
        raise ShapeError(f"conv2d bias must be ({Cout},), got {b.shape}")
    Ho, Wo = out_size(H, kh, stride, padding), out_size(W, kw, stride, padding)
    parents = (x, w) if b is None else (x, w, b)
    n = _group_size("conv2d", xd.shape)  # a _grouped group is tiled as it would be alone
    if kh == kw == 1 and padding == 0 and groups == 1:
        out, grads = _channel_gemm(x, w, stride)
    else:
        G, opg = groups, Cout // groups
        wg = wd.reshape(G, opg, -1)
        step = max(1, _TILE_BYTES // (Cin * kh * kw * Ho * Wo * xd.itemsize))
        tiles = [(a, min(a + step, g + n)) for g in range(0, N, n) for a in range(g, g + n, step)]

        def im2col(a, z):
            """Images [a, z)'s columns: group g's matrix, one row per (channel, ki, kj)."""
            win = _windows(_padded(xd[a:z].transpose(1, 2, 3, 0), padding, 0.0), kh, kw, stride, Ho, Wo)
            return np.ascontiguousarray(win.reshape(G, Cpg, Ho, Wo, z - a, kh, kw)
                                        .transpose(0, 1, 5, 6, 2, 3, 4)).reshape(G, -1, Ho * Wo * (z - a))

        out = np.empty((N, Cout, Ho, Wo), dtype=np.result_type(xd, wd))
        for a, z in tiles:
            if z - a == 1:
                np.matmul(wg, im2col(a, z), out=out[a].reshape(G, opg, Ho * Wo))
            else:
                out[a:z] = (wg @ im2col(a, z)).reshape(Cout, Ho, Wo, z - a).transpose(3, 0, 1, 2)

        def grads(dout):  # holds no columns: each tile's are gathered again from x
            dw = np.zeros(wg.shape, dtype=np.result_type(dout, xd))
            dx = np.empty(xd.shape, dtype=np.result_type(dout, wd)) if x.requires_grad else None
            for a, z in tiles:
                d = np.ascontiguousarray(dout[a:z].transpose(1, 2, 3, 0)).reshape(G, opg, -1)
                dw += d @ im2col(a, z).transpose(0, 2, 1)
                if dx is not None:
                    dwin = ((wg.transpose(0, 2, 1) @ d).reshape(Cin, kh, kw, Ho, Wo, z - a)
                            .transpose(0, 3, 4, 5, 1, 2))
                    dx[a:z] = _scatter_windows(dwin, H, W, stride, padding).transpose(3, 0, 1, 2)
            return dx, dw.reshape(wd.shape)

    if b is None:
        return _result("conv2d", out, parents, grads)
    out += b.data.reshape(1, Cout, 1, 1)
    return _result("conv2d", out, parents, lambda dout: (*grads(dout), _csum(dout)))


def max_pool2d(x: Tensor, *, kernel: int = 3, stride: int = 2, padding: int = 1) -> Tensor:
    """Running maximum over the k*k strided slices of the -inf-padded input; the
    backward routes each output's gradient to its window's first maximum. The
    window gather and scatter are conv2d's, on the map viewed as (N*C, H, W, 1)."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"max_pool2d expects rank-4 input, got {xd.shape}")
    N, C, H, W = xd.shape
    k, s, p = check_count("kernel", kernel, 1, ShapeError), stride, padding
    Ho, Wo = out_size(H, k, s, p), out_size(W, k, s, p)
    if p >= k:
        raise ShapeError("max_pool2d padding must be smaller than the kernel")

    def windows():
        return _windows(_padded(xd.reshape(N * C, H, W, 1), p, -np.inf), k, k, s, Ho, Wo)

    win = windows()
    out = win[..., 0, 0].copy()
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(out, win[..., i, j], out=out)

    def bwd(dout):  # holds no windows: they are gathered again from x
        win = windows()
        flat = win.reshape(win.shape[:4] + (k * k,))
        dwin = np.zeros(flat.shape, dtype=xd.dtype)
        np.put_along_axis(dwin, flat.argmax(axis=-1)[..., None],
                          dout.reshape(N * C, Ho, Wo, 1, 1), axis=-1)
        return (_scatter_windows(dwin.reshape(win.shape), H, W, s, p).reshape(N, C, H, W),)

    return _result("max_pool2d", out.reshape(N, C, Ho, Wo), (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"global_avg_pool expects rank-4 input, got {xd.shape}")
    N, C, H, W = xd.shape
    for axis in (2, 3):
        _axis("global_avg_pool", axis, xd.shape, nonempty=True)

    def bwd(dout):
        return (np.broadcast_to(dout[:, :, None, None] / (H * W), xd.shape).copy(),)

    return _result("global_avg_pool", xd.mean(axis=(2, 3)), (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """exp(x - max) / sum, in one buffer. A NaN or +inf input, or a row that is
    all -inf, gives a NaN output, which the output check names; a -inf entry in
    a row with a finite maximum gives 0."""
    axis = _axis("softmax", axis, x.data.shape, nonempty=True)
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    sub = "abcd"[:y.ndim]
    dot = f"{sub},{sub}->{sub[:axis] + sub[axis + 1:]}"

    def bwd(dout):
        # y * (dout - sum(dout * y)) along the axis, the sum one einsum
        dx = dout - np.expand_dims(np.einsum(dot, dout, y), axis)
        dx *= y
        return (dx,)

    return _result("softmax", y, (x,), bwd)


NORM_EPS = 1e-5  # added to the variance by layer_norm and batch_norm
BN_MOMENTUM = 0.1  # weight of a batch's statistics in batch_norm's running buffers


def _norm_input(op: str, x: Tensor, gamma: Tensor, beta: Tensor) -> np.ndarray:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"{op} expects rank-4 input, got {xd.shape}")
    C = xd.shape[1]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(f"{op} affine shape must be ({C},)")
    return xd


def _fixed_normalize(x: Tensor, gamma: Tensor, beta: Tensor, mean, var) -> Tensor:
    """Eval batch_norm: gamma * (x - mean) / sqrt(var + NORM_EPS) + beta with fixed
    per-channel statistics, as one scale a and shift, x * a + (beta - mean * a)."""
    C = x.data.shape[1]
    istd = 1.0 / np.sqrt(var.reshape(1, C, 1, 1) + NORM_EPS)
    a = gamma.data.reshape(1, C, 1, 1) * istd
    y = x.data * a
    y += beta.data.reshape(1, C, 1, 1) - mean.reshape(1, C, 1, 1) * a

    def bwd(dout):
        xh = (x.data - mean.reshape(1, C, 1, 1)) * istd
        return dout * a, _csum(dout, xh), _csum(dout)

    return _result("batch_norm", y, (x, gamma, beta), bwd)


def _normalize(op: str, x: Tensor, gamma: Tensor, beta: Tensor, keep: str, groups: int = 0):
    """gamma * (x - mean) / sqrt(var + NORM_EPS) + beta, the statistics taken over
    every axis of the NCHW map but keep's ("c": batch_norm) or over the channel
    axis alone (keep "nhw": layer_norm), so the gradient flows through them.
    Returns the output and the mean and (biased) variance, shaped as _csum's.
    With groups (batch_norm under _grouped, which has no backward) the map is
    viewed as (groups, n, C, H, W) and each group takes its own statistics.

    One centred copy xc = xd - mean gives var = sum(xc * xc) / m (two-pass, like
    numpy's var) and is then scaled into xhat in place; the node keeps only mean
    and istd, and the backward builds xhat again by those two operations (the
    same bits). It takes dbeta and dgamma first: for batch_norm the stat-axis
    means of dout * gamma and dout * gamma * xhat are gamma * dbeta / m and
    gamma * dgamma / m, so dx takes no further full-size sum; layer_norm sums
    over its channels."""
    N, C, H, W = x.data.shape
    m = N * H * W if keep == "c" else C
    shape = (1, C, 1, 1) if keep == "c" else (N, 1, H, W)
    xd = x.data
    if groups:
        xd = xd.reshape(groups, N // groups, C, H, W)
        m, shape = m // groups, (groups, 1, C, 1, 1)
    mean = _csum(xd, keep=keep) / m
    xhat = xd - mean.reshape(shape)
    var = _csum(xhat, xhat, keep=keep) / m
    istd = (1.0 / np.sqrt(var + NORM_EPS)).reshape(shape)
    xhat *= istd
    g = gamma.data.reshape(1, C, 1, 1)
    y = xhat * g
    y += beta.data.reshape(1, C, 1, 1)
    y = y.reshape(x.data.shape)

    def bwd(dout):
        xhat = xd - mean.reshape(shape)
        xhat *= istd
        dbeta, dgamma = _csum(dout), _csum(dout, xhat)
        if keep == "c":
            d, k, s1, s2 = dout, g * istd, dbeta, dgamma
        else:
            d, k = dout * g, istd
            s1, s2 = _csum(d, keep=keep), _csum(d, xhat, keep=keep)
        # k * (d - mean(d) - xhat * mean(d * xhat)), the means over the stat axes
        dx = xhat * (s2 / -m).reshape(shape)
        dx += d
        dx -= (s1 / m).reshape(shape)
        dx *= k
        return dx, dgamma, dbeta

    return _result(op, y, (x, gamma, beta), bwd), mean, var


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the channel axis (axis 1) of an NCHW map."""
    _axis("layer_norm", 1, _norm_input("layer_norm", x, gamma, beta).shape, nonempty=True)
    return _normalize("layer_norm", x, gamma, beta, "nhw")[0]


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, *,
               training: bool) -> Tensor:
    """BatchNorm over (N, H, W) per channel; running buffers are plain (C,) arrays
    updated in place during training by BN_MOMENTUM (unbiased variance in the
    running estimate)."""
    xd = _norm_input("batch_norm", x, gamma, beta)
    for name, buf in (("running_mean", running_mean), ("running_var", running_var)):
        if not isinstance(buf, np.ndarray) or buf.shape != (xd.shape[1],):
            got = buf.shape if isinstance(buf, np.ndarray) else type(buf).__name__
            raise ShapeError(f"batch_norm {name} must be an array of shape ({xd.shape[1]},), "
                             f"got {got}")
    if not training:
        return _fixed_normalize(x, gamma, beta, running_mean, running_var)
    groups = xd.shape[0] // _group_size("batch_norm", xd.shape)
    n = xd.size // xd.shape[1] // groups
    if n < 2:
        raise ShapeError(f"batch_norm in training mode needs more than one value per channel, "
                         f"got a batch of {xd.shape[0] // groups} on {xd.shape[2]}x{xd.shape[3]} "
                         f"maps at '{current_scope()}'")
    if _GROUP[0]:  # statistics per group; the running buffers stay as they are
        return _normalize("batch_norm", x, gamma, beta, "c", groups)[0]
    y, mean, var = _normalize("batch_norm", x, gamma, beta, "c")
    running_mean[:] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
    running_var[:] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var * (n / (n - 1))
    return y


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy; labels is an integer array of shape (N,)."""
    ld = logits.data
    labels = np.asarray(labels)
    if ld.ndim != 2 or labels.shape != (ld.shape[0],) or ld.shape[0] < 1:
        raise ShapeError(f"cross_entropy expects (N, K) logits with N >= 1 and (N,) labels, got {ld.shape}, {labels.shape}")
    N, K = ld.shape
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0 or labels.max() >= K:
        raise ShapeError(f"cross_entropy labels must be integers in [0, {K}), got "
                         f"{labels.dtype} labels from {labels.min()} to {labels.max()}")
    m = ld.max(axis=1, keepdims=True)
    z = ld - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True)) + m
    loss = (lse[:, 0] - ld[np.arange(N), labels]).mean()

    def bwd(dout):
        probs = np.exp(ld - lse)
        probs[np.arange(N), labels] -= 1.0
        return (probs * (dout / N),)

    return _result("cross_entropy", np.asarray(loss), (logits,), bwd)


# ---------------------------------------------------------------------------
# autodiff driver


def _freed(dout):
    """The _backward of a node a backward() walk has passed: the graph is single-use."""
    raise GraphError("backward already ran through this graph, which freed it; "
                     "run the forward again")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into leaf .grad.

    The graph is single-use: as the walk reaches each recorded node it calls
    that node's _backward, then drops its parents and sets its _backward to
    _freed, so the activations the closures held die during the walk, not
    when the caller rebinds the loss. A second backward through any node of a
    freed graph raises GraphError before any gradient moves. Leaves (no
    _backward) are not touched but for their .grad."""
    if loss.data.shape not in ((), (1,)):
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("backward: the loss has no recorded graph (it was computed under "
                         "no_grad, by an eval-mode forward, or from tensors that need no "
                         "gradient); run model_forward with training=True")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _freed:  # raise before any gradient moves
            _freed(None)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(loss): np.ones_like(loss.data)}
    while topo:  # reverse topological order, dropping each node once walked
        node = topo.pop()
        g = grads.pop(id(node), None)
        fn, parents = node._backward, node._parents
        if fn is None:
            if g is not None and node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        node._backward, node._parents = _freed, ()
        if g is None:
            continue
        for parent, pg in zip(parents, fn(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named trainable tensors with deterministic lexicographic iteration."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, path: str, tensor: Tensor) -> Tensor:
        if path in self._params:
            raise ValueError(f"duplicate parameter path '{path}'")
        tensor.requires_grad = True
        self._params[path] = tensor
        return tensor

    def __getitem__(self, path: str) -> Tensor:
        try:
            return self._params[path]
        except KeyError:
            raise KeyError(f"no parameter at path '{path}'") from None

    def __contains__(self, path: str) -> bool:
        return path in self._params

    def __len__(self) -> int:
        return len(self._params)

    def paths(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for path in sorted(self._params):
            yield path, self._params[path]

    def total_elements(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None


def _central_pair(data: np.ndarray, index: int, h: float, evaluate) -> tuple:
    """(evaluate() with data.flat[index] raised by h, evaluate() with it lowered
    by h), the value restored afterwards, also after an exception. index is the
    C-order position, which .flat writes through to for any layout: a reshape(-1)
    of a non-contiguous array would write a copy."""
    old = data.flat[index].item()
    try:
        data.flat[index] = old + h
        up = evaluate()
        data.flat[index] = old - h
        return up, evaluate()
    finally:
        data.flat[index] = old


def finite_diff_grad(f, store: ParamStore, path: str, index: int, h: float = 1e-3) -> float:
    """Central-difference d f / d store[path].flat[index] (_central_pair).
    index is a count below the tensor's size, h goes through check_positive.
    The probe forwards only read the loss value, so they record no graph."""
    def evaluate():
        with no_grad():
            out = f()
        return float(out.data) if isinstance(out, Tensor) else float(out)

    data = store[path].data
    index = check_count("index", index, 0)
    if index >= data.size:
        raise ValueError(f"index must be below the {data.size} entries of '{path}', got {index}")
    h = check_positive("h", h)
    fp, fm = _central_pair(data, index, h, evaluate)
    return (fp - fm) / (2.0 * h)
