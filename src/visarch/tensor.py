"""NCHW tensor core: float32/float64 storage, reverse-mode autodiff, layer ops.

Every op checks its forward output for NaN/Inf and raises NonFiniteError naming
the innermost layer_scope, so a blow-up points at a layer instead of a loss=nan.
Gradients accumulate into leaf .grad across backward() calls until cleared.

conv2d and max_pool2d share one window rule: out_size (which layer_plan also
uses for every spatial shape), one padded gather and its adjoint scatter.
conv2d runs a 1x1, unpadded, ungrouped kernel as one channel GEMM on NCHW
instead. layer_norm and batch_norm share one normalise-and-affine kernel.
Under no_grad ops record no graph, so backward() on their result raises.
"""

from __future__ import annotations

from contextlib import contextmanager

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


class Tensor:
    """A rank<=4 float array plus an optional grad and autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _check_finite(arr, op: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op} produced a non-finite value at '{current_scope()}'")


def _result(op, data, parents, backward_fn):
    _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED[0] and any(p.requires_grad or p._backward is not None for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


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


def add(x: Tensor, y: Tensor) -> Tensor:
    data = x.data + y.data
    if data.ndim > 4:
        raise ShapeError("add result exceeds rank 4")

    def bwd(dout):
        return _unbroadcast(dout, x.data.shape), _unbroadcast(dout, y.data.shape)

    return _result("add", data, (x, y), bwd)


def add_residual(x: Tensor, y: Tensor) -> Tensor:
    if x.data.shape != y.data.shape:
        raise ShapeError(f"residual add needs equal shapes, got {x.data.shape} vs {y.data.shape}")
    return add(x, y)


def sub(x: Tensor, y: Tensor) -> Tensor:
    data = x.data - y.data

    def bwd(dout):
        return _unbroadcast(dout, x.data.shape), _unbroadcast(-dout, y.data.shape)

    return _result("sub", data, (x, y), bwd)


def mul(x: Tensor, y: Tensor) -> Tensor:
    data = x.data * y.data

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
    mask = x.data > 0

    def bwd(dout):
        return (dout * mask,)

    return _result("relu", np.where(mask, x.data, 0), (x,), bwd)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    xd = x.data
    # products, not float pow: a float32 x ** 3 costs ~90x more than x * x * x
    t = np.tanh(_GELU_C * (xd + 0.044715 * (xd * xd * xd)))

    def bwd(dout):
        du = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        return (dout * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)

    return _result("gelu", 0.5 * xd * (1.0 + t), (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if len(shape) > 4:
        raise ShapeError("reshape target exceeds rank 4")
    old = x.data.shape

    def bwd(dout):
        return (dout.reshape(old),)

    return _result("reshape", x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, perm) -> Tensor:
    perm = tuple(perm)
    inv = tuple(np.argsort(perm))

    def bwd(dout):
        return (dout.transpose(inv),)

    return _result("transpose", x.data.transpose(perm), (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(dout):
        return tuple(np.split(dout, splits, axis=axis))

    return _result("concat", np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or length < 0 or start + length > x.data.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range on axis {axis}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(dout):
        dx = np.zeros_like(x.data)
        dx[idx] = dout
        return (dx,)

    return _result("narrow", x.data[idx].copy(), (x,), bwd)


def batch_tile(x: Tensor, n: int) -> Tensor:
    """Tile a parameter over a new leading batch axis of size n."""
    if x.data.ndim >= 4:
        raise ShapeError("batch_tile input must have rank <= 3")

    def bwd(dout):
        return (dout.sum(axis=0),)

    return _result("batch_tile", np.broadcast_to(x.data, (n,) + x.data.shape).copy(), (x,), bwd)


def gather_rows(table: Tensor, index) -> Tensor:
    """out[i, j] = table[index[i, j]] for a 2-d integer index map."""
    index = np.asarray(index)
    if table.data.ndim != 2 or index.ndim != 2:
        raise ShapeError("gather_rows expects a 2-d table and a 2-d index map")

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
    """y = x @ w.T (+ b); x has rank 2 or 3 with features on the last axis."""
    xd, wd = x.data, w.data
    if xd.ndim not in (2, 3) or wd.ndim != 2:
        raise ShapeError(f"linear expects rank-2/3 input and rank-2 weight, got {xd.shape}, {wd.shape}")
    if xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"linear feature mismatch: input {xd.shape[-1]} vs weight {wd.shape}")
    data = xd @ wd.T
    if b is not None:
        data = data + b.data
    parents = (x, w) if b is None else (x, w, b)

    def bwd(dout):
        dflat = dout.reshape(-1, wd.shape[0])
        dx = (dout @ wd) if (x.requires_grad or x._backward) else None
        dw = dflat.T @ xd.reshape(-1, wd.shape[1])
        if b is None:
            return dx, dw
        return dx, dw, dflat.sum(axis=0)

    return _result("linear", data, parents, bwd)


def out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Positions a kernel-wide window visits sliding by stride over size cells
    padded at both ends: the output size of conv2d, max_pool2d and layer_plan."""
    if size + 2 * padding < kernel:
        raise ShapeError(f"kernel {kernel} larger than padded input {size + 2 * padding}")
    return (size + 2 * padding - kernel) // stride + 1


def _windows(xd, kh: int, kw: int, s: int, p: int, fill: float):
    """(N, C, Ho, Wo, kh, kw) read-only view of every window (stride s) of an
    NCHW array padded by p cells of `fill`: the gather behind conv2d and max_pool2d."""
    ho = out_size(xd.shape[2], kh, s, p)
    wo = out_size(xd.shape[3], kw, s, p)
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill) if p else xd
    return sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, :ho * s:s, :wo * s:s]


def _scatter_windows(dwin, height: int, width: int, s: int, p: int):
    """Adjoint of _windows: sum (..., Ho, Wo, kh, kw) window gradients back onto
    the (..., height, width) input they were gathered from."""
    ho, wo, kh, kw = dwin.shape[-4:]
    dxp = np.zeros(dwin.shape[:-4] + (height + 2 * p, width + 2 * p), dtype=dwin.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[..., i:i + s * ho:s, j:j + s * wo:s] += dwin[..., i, j]
    return dxp[..., p:p + height, p:p + width] if p else dxp


def _channel_gemm(x: Tensor, w: Tensor, b: Tensor | None, s: int) -> Tensor:
    """1x1 convolution, no padding, one group, as (Cout, Cin) @ (N, Cin, Ho*Wo)
    straight on NCHW: no im2col and no transposed copies."""
    xd = x.data[:, :, ::s, ::s] if s > 1 else x.data
    N, Cin, Ho, Wo = xd.shape
    xs = xd.reshape(N, Cin, Ho * Wo)  # copies only a strided or non-contiguous input
    wm = w.data.reshape(-1, Cin)
    out = wm @ xs
    if b is not None:
        out += b.data.reshape(-1, 1)
    parents = (x, w) if b is None else (x, w, b)

    def bwd(dout):
        d = dout.reshape(N, -1, Ho * Wo)
        dw = np.tensordot(d, xs, axes=([0, 2], [0, 2])).reshape(w.data.shape)
        dx = None
        if x.requires_grad or x._backward is not None:
            dxs = (wm.T @ d).reshape(N, Cin, Ho, Wo)
            if s == 1:
                dx = dxs
            else:
                dx = np.zeros(x.data.shape, dtype=dxs.dtype)
                dx[:, :, ::s, ::s] = dxs
        if b is None:
            return dx, dw
        return dx, dw, dout.sum(axis=(0, 2, 3))

    return _result("conv2d", out.reshape(N, -1, Ho, Wo), parents, bwd)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-d convolution on NCHW. A 1x1 kernel with no padding and one group is
    one channel GEMM (_channel_gemm); any other kernel is one batched GEMM
    over the group axis, (G, N*Ho*Wo, Cpg*kh*kw) @ (G, Cpg*kh*kw, Cout/G)."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input and weight, got {xd.shape}, {wd.shape}")
    N, Cin, H, W = xd.shape
    Cout, Cpg, kh, kw = wd.shape
    if Cin % groups or Cout % groups:
        raise ShapeError(f"channels ({Cin} in, {Cout} out) not divisible by groups={groups}")
    if Cpg != Cin // groups:
        raise ShapeError(f"weight expects {Cpg * groups} input channels, got {Cin} (groups={groups})")
    s, p = int(stride), int(padding)
    if kh == kw == 1 and p == 0 and groups == 1:
        return _channel_gemm(x, w, b, s)
    win = _windows(xd, kh, kw, s, p, 0.0)
    Ho, Wo = win.shape[2:4]
    G, opg = groups, Cout // groups
    # cols[g] is group g's im2col matrix; wg[g] its (opg, Cpg*kh*kw) filters
    cols = np.ascontiguousarray(win.reshape(N, G, Cpg, Ho, Wo, kh, kw)
                                .transpose(1, 0, 3, 4, 2, 5, 6)).reshape(G, N * Ho * Wo, -1)
    wg = wd.reshape(G, opg, -1)
    out = (cols @ wg.transpose(0, 2, 1)).reshape(G, N, Ho, Wo, opg)
    out = np.ascontiguousarray(out.transpose(1, 0, 4, 2, 3)).reshape(N, Cout, Ho, Wo)
    if b is not None:
        out += b.data.reshape(1, Cout, 1, 1)
    parents = (x, w) if b is None else (x, w, b)

    def bwd(dout):
        dflat = dout.transpose(0, 2, 3, 1).reshape(N * Ho * Wo, G, opg).transpose(1, 0, 2)
        dw = (dflat.transpose(0, 2, 1) @ cols).reshape(Cout, Cpg, kh, kw)
        dx = None
        if x.requires_grad or x._backward is not None:
            dcols = (dflat @ wg).reshape(G, N, Ho, Wo, Cpg, kh, kw).transpose(1, 0, 4, 2, 3, 5, 6)
            dx = _scatter_windows(dcols, H, W, s, p).reshape(N, Cin, H, W)
        if b is None:
            return dx, dw
        return dx, dw, dout.sum(axis=(0, 2, 3))

    return _result("conv2d", out, parents, bwd)


def max_pool2d(x: Tensor, *, kernel: int = 3, stride: int = 2, padding: int = 1) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"max_pool2d expects rank-4 input, got {xd.shape}")
    H, W = xd.shape[2:]
    k, s, p = int(kernel), int(stride), int(padding)
    if p >= k:
        raise ShapeError("max_pool2d padding must be smaller than the kernel")
    win = _windows(xd, k, k, s, p, -np.inf)
    shape = win.shape
    flat = win.reshape(shape[:4] + (k * k,))
    arg = flat.argmax(axis=-1)[..., None]
    out = np.take_along_axis(flat, arg, axis=-1)[..., 0]

    def bwd(dout):  # holds arg and shapes only, so the windows are freed
        dwin = np.zeros(shape[:4] + (k * k,), dtype=xd.dtype)
        np.put_along_axis(dwin, arg, dout[..., None], axis=-1)
        return (_scatter_windows(dwin.reshape(shape), H, W, s, p),)

    return _result("max_pool2d", np.ascontiguousarray(out), (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"global_avg_pool expects rank-4 input, got {xd.shape}")
    N, C, H, W = xd.shape

    def bwd(dout):
        return (np.broadcast_to(dout[:, :, None, None] / (H * W), xd.shape).copy(),)

    return _result("global_avg_pool", xd.mean(axis=(2, 3)), (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    _check_finite(x.data, "softmax input")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(dout):
        return (y * (dout - (dout * y).sum(axis=axis, keepdims=True)),)

    return _result("softmax", y, (x,), bwd)


def _norm_input(op: str, x: Tensor, gamma: Tensor, beta: Tensor) -> np.ndarray:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"{op} expects rank-4 input, got {xd.shape}")
    C = xd.shape[1]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(f"{op} affine shape must be ({C},)")
    return xd


def _normalize(op: str, x: Tensor, gamma: Tensor, beta: Tensor, mean, var, eps: float,
               stat_axes) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta per channel of an NCHW map.
    mean and var were taken over the stat_axes of x, so the gradient flows
    through them, or are fixed statistics if stat_axes is None."""
    C = x.data.shape[1]
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * istd
    g = gamma.data.reshape(1, C, 1, 1)

    def bwd(dout):
        dxh = dout * g
        if stat_axes is None:
            dx = dxh * istd
        else:
            dx = istd * (dxh - dxh.mean(axis=stat_axes, keepdims=True)
                         - xhat * (dxh * xhat).mean(axis=stat_axes, keepdims=True))
        return dx, (dout * xhat).sum(axis=(0, 2, 3)), dout.sum(axis=(0, 2, 3))

    return _result(op, xhat * g + beta.data.reshape(1, C, 1, 1), (x, gamma, beta), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, *, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis (axis 1) of an NCHW map."""
    xd = _norm_input("layer_norm", x, gamma, beta)
    return _normalize("layer_norm", x, gamma, beta, xd.mean(axis=1, keepdims=True),
                      xd.var(axis=1, keepdims=True), eps, stat_axes=1)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, *,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """BatchNorm over (N, H, W) per channel; running buffers are plain arrays
    updated in place during training (unbiased variance in the running estimate)."""
    xd = _norm_input("batch_norm", x, gamma, beta)
    C = xd.shape[1]
    if not training:
        return _normalize("batch_norm", x, gamma, beta, running_mean.reshape(1, C, 1, 1),
                          running_var.reshape(1, C, 1, 1), eps, stat_axes=None)
    n = xd.size // C
    if n < 2:
        raise ShapeError("batch_norm in training mode needs more than one value per channel")
    mean = xd.mean(axis=(0, 2, 3))
    var = xd.var(axis=(0, 2, 3))
    running_mean[:] = (1 - momentum) * running_mean + momentum * mean
    running_var[:] = (1 - momentum) * running_var + momentum * var * (n / (n - 1))
    return _normalize("batch_norm", x, gamma, beta, mean.reshape(1, C, 1, 1),
                      var.reshape(1, C, 1, 1), eps, stat_axes=(0, 2, 3))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy; labels is an integer array of shape (N,)."""
    ld = logits.data
    labels = np.asarray(labels)
    if ld.ndim != 2 or labels.shape != (ld.shape[0],):
        raise ShapeError(f"cross_entropy expects (N, K) logits and (N,) labels, got {ld.shape}, {labels.shape}")
    N, K = ld.shape
    if labels.size and (not np.issubdtype(labels.dtype, np.integer)
                        or labels.min() < 0 or labels.max() >= K):
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


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into leaf .grad."""
    if loss.data.shape not in ((), (1,)):
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward is None and not loss.requires_grad:
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
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


def finite_diff_grad(f, store: ParamStore, path: str, index: int, h: float = 1e-3) -> float:
    """Central-difference d f / d store[path].flat[index]; restores the value.
    The probe forwards only read the loss value, so they record no graph."""
    def evaluate():
        with no_grad():
            out = f()
        return float(out.data) if isinstance(out, Tensor) else float(out)

    flat = store[path].data.reshape(-1)
    old = flat[index].item()
    try:
        flat[index] = old + h
        fp = evaluate()
        flat[index] = old - h
        fm = evaluate()
    finally:
        flat[index] = old
    return (fp - fm) / (2.0 * h)
