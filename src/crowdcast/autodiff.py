"""Dense tensors with reverse-mode automatic differentiation on numpy storage.

Every operation records its parent tensors plus a closure that maps the
output gradient to parent-gradient contributions; ``backward`` replays the
recorded graph once in reverse topological order and then consumes it.
Broadcasting follows numpy semantics but only over leading batch dimensions
or explicit size-1 axes; anything fancier needs an explicit reshape.

All op outputs must be finite.  Leaf tensors may carry -inf (attention
masks); ``masked_softmax`` maps those entries to exact zeros.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


class no_grad:
    """Context manager that disables graph recording (forward-only)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """N-dimensional array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- bookkeeping -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        # the first contribution is copied, so a grad never aliases an
        # array that another tensor's grad or a backward closure holds
        if self.grad is None:
            self.grad = np.broadcast_to(g, self.data.shape).astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def tensor(data, requires_grad=False, dtype=None):
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _check_finite(arr, op):
    # a single non-finite entry poisons the sum, so one scalar test suffices
    if not np.isfinite(arr.sum()):
        raise NonFiniteError(f"{op} produced non-finite values")


def _make(data, op, parents, backward_fn, check=True):
    """Wrap an op result, recording the tape node when grads are enabled."""
    if check:
        _check_finite(data, op)
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires
    out.grad = None
    if requires:
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_shape(a, b, op):
    if a.data.shape == b.data.shape:
        return a.data.shape
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not align") from None


# -- elementwise ops -----------------------------------------------------


def add(a, b):
    _broadcast_shape(a, b, "add")

    def bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, "add", (a, b), bw)


def sub(a, b):
    _broadcast_shape(a, b, "sub")

    def bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(a.data - b.data, "sub", (a, b), bw)


def mul(a, b):
    _broadcast_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def bw(g, a=a, b=b, ad=ad, bd=bd):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * bd, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ad, b.shape))

    return _make(ad * bd, "mul", (a, b), bw)


def div(a, b):
    _broadcast_shape(a, b, "div")
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = ad / bd

    def bw(g, a=a, b=b, ad=ad, bd=bd):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / bd, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * ad / (bd * bd), b.shape))

    return _make(out_data, "div", (a, b), bw)


def relu(x):
    out_data = np.maximum(x.data, 0.0)

    def bw(g, x=x, out_data=out_data):
        if x.requires_grad:
            x._accumulate(g * (out_data > 0))

    return _make(out_data, "relu", (x,), bw)


def exp(x):
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)

    def bw(g, x=x, out_data=out_data):
        if x.requires_grad:
            x._accumulate(g * out_data)

    return _make(out_data, "exp", (x,), bw)


def norm(x, axis=-1):
    """Euclidean norm along ``axis``.

    The backward takes the zero subgradient where the norm is exactly
    zero, so coincident points give finite gradients.
    """
    xd = x.data
    out_data = np.sqrt(np.sum(xd * xd, axis=axis))

    def bw(g, x=x, xd=xd, out_data=out_data, axis=axis):
        if x.requires_grad:
            safe = np.expand_dims(np.where(out_data > 0, out_data, 1.0), axis)
            x._accumulate(np.expand_dims(g, axis) * (xd / safe))

    return _make(out_data, "norm", (x,), bw)


def absval(x):
    """|x|, composed from relu so the subgradient at 0 is 0."""
    return add(relu(x), relu(mul(x, _as_tensor(-1.0, x.dtype))))


def atan2(y, x):
    """Elementwise arctan2 with the standard bounded partial derivatives."""
    _broadcast_shape(y, x, "atan2")
    yd, xd = y.data, x.data

    def bw(g, y=y, x=x, yd=yd, xd=xd):
        denom = np.maximum(xd * xd + yd * yd, 1e-18)
        if y.requires_grad:
            y._accumulate(_unbroadcast(g * xd / denom, y.shape))
        if x.requires_grad:
            x._accumulate(_unbroadcast(-g * yd / denom, x.shape))

    return _make(np.arctan2(yd, xd), "atan2", (y, x), bw)


# -- linear algebra ------------------------------------------------------


def matmul(a, b):
    """Batched matrix product over leading axes.

    The gradient of a 2-D right operand (a weight) is one GEMM over the
    left operand's leading axes folded together, not a per-slice stack of
    products summed afterwards.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires ndim >= 2 operands (reshape vectors explicitly)")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape} disagree")
    ad, bd = a.data, b.data

    def bw(g, a=a, b=b, ad=ad, bd=bd):
        if bd.ndim == 2:
            k, n = bd.shape
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                a._accumulate((g2 @ bd.T).reshape(ad.shape))
            if b.requires_grad:
                b._accumulate(ad.reshape(-1, k).T @ g2)
            return
        if a.requires_grad:
            ga = g @ np.swapaxes(bd, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(ad, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.shape))

    return _make(ad @ bd, "matmul", (a, b), bw)


# -- shape ops -----------------------------------------------------------


def reshape(x, shape):
    old = x.shape

    def bw(g, x=x, old=old):
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return _make(x.data.reshape(shape), "reshape", (x,), bw, check=False)


def transpose(x, axes=None):
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inv = tuple(np.argsort(axes))

    def bw(g, x=x, inv=inv):
        if x.requires_grad:
            x._accumulate(g.transpose(inv))

    return _make(x.data.transpose(axes), "transpose", (x,), bw, check=False)


def swapaxes(x, a, b):
    axes = list(range(x.ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return transpose(x, tuple(axes))


def concat(tensors, axis=0):
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g, tensors=tensors, offsets=offsets, axis=axis):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(data, "concat", tuple(tensors), bw, check=False)


def stack(tensors, axis=0):
    return concat([reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors], axis=axis)


def getitem(x, key):
    data = x.data[key]
    fancy = isinstance(key, (np.ndarray, list)) or (
        isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key)
    )

    def bw(g, x=x, key=key, fancy=fancy):
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            if fancy:
                np.add.at(grad, key, g)
            else:
                grad[key] += g
            x._accumulate(grad)

    return _make(data, "getitem", (x,), bw, check=False)


# -- reductions ----------------------------------------------------------


def tsum(x, axis=None, keepdims=False):
    def bw(g, x=x, axis=axis, keepdims=keepdims):
        if x.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.shape))

    return _make(x.data.sum(axis=axis, keepdims=keepdims), "sum", (x,), bw)


# -- neural-net primitives ----------------------------------------------


def masked_softmax(logits, absent=None):
    """Row softmax over the last axis with max-subtraction.

    ``absent`` (bool, broadcastable) marks keys that get weight 0; when it
    is omitted, the input's -inf entries are the absent keys.  A row with
    every key absent yields an all-zero row; callers must not attend from
    such rows.
    """
    xd = logits.data
    if absent is None:
        if np.any(np.isnan(xd)) or np.any(np.isposinf(xd)):
            raise NonFiniteError("masked_softmax input contains NaN or +inf")
        absent = np.isneginf(xd)
    else:
        absent = np.broadcast_to(np.asarray(absent, dtype=bool), logits.shape)
    masked = np.where(absent, -np.inf, xd)
    rowmax = masked.max(axis=-1, keepdims=True)
    safe_max = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.where(absent, 0.0, np.exp(masked - safe_max))
    s = e.sum(axis=-1, keepdims=True)
    y = np.where(s > 0, e / np.where(s > 0, s, 1.0), 0.0)

    def bw(g, logits=logits, y=y):
        if logits.requires_grad:
            logits._accumulate(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _make(y, "masked_softmax", (logits,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias, eps=LAYER_NORM_EPS):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
        lead = tuple(range(g.ndim - 1))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=lead))
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=lead))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(out_data, "layer_norm", (x, gain, bias), bw)


# -- backward pass -------------------------------------------------------


def backward(loss):
    """Populate grads of every requires_grad leaf reachable from ``loss``.

    The recorded graph is consumed: a second backward on the same tensors
    is a no-op for already-freed nodes.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no tape recorded)")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    # popping drops the list's reference, so a node that nothing else
    # holds frees its data and grad as soon as its backward has run
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()


# -- gradient checking ---------------------------------------------------


def numerical_gradient(f, tensor_obj, indices=None, h=1e-5):
    """Central finite differences of scalar-valued f w.r.t. tensor entries."""
    flat = tensor_obj.data.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    grads = {}
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        lp = float(f().data)
        flat[i] = orig - h
        lm = float(f().data)
        flat[i] = orig
        grads[i] = (lp - lm) / (2.0 * h)
    return grads


def gradcheck(f, tensors, h=1e-5, max_entries=None, rng=None):
    """Compare analytic grads of scalar f() against central differences.

    Returns the max relative error over all probed entries.  ``tensors``
    are the leaves to probe; each is checked at every entry unless
    ``max_entries`` caps the probe count (entries then chosen by ``rng``).
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    backward(loss)
    analytic = [None if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, an in zip(tensors, analytic):
        n = t.size
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(n, size=max_entries, replace=False)
        else:
            idx = range(n)
        num = numerical_gradient(f, t, indices=idx, h=h)
        an_flat = np.zeros(n) if an is None else an.reshape(-1)
        for i, fd in num.items():
            a = an_flat[i]
            denom = max(abs(a), abs(fd), 1e-6)
            worst = max(worst, abs(a - fd) / denom)
    return worst
