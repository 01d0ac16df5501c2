"""Dense tensors with reverse-mode automatic differentiation on numpy storage.

Every operation records its parent tensors plus a closure that maps the
output gradient to parent-gradient contributions; ``backward`` replays the
recorded graph once in reverse topological order and then consumes it.
Broadcasting follows numpy semantics but only over leading batch dimensions
or explicit size-1 axes; anything fancier needs an explicit reshape.

All op outputs must be finite.  Attention masks carry their absent keys
as a boolean array beside a finite bias; ``softmax_data`` gives those keys
exact-zero weight.  Only the ops some model path records are defined.

Backward closures read their operands' arrays, not copies: ``linear``
reads its ReLU mask off its output, ``layer_norm`` rebuilds its
normalized rows from its input, and each pre-norm sublayer backward
(``ffn`` with a norm, and ``attention.masked_mha``) reads the residual
stream it was given to rebuild its normalized rows.  So no array is
written after the node that reads it is recorded.  The exceptions are a
node's own output, which its epilogues write before ``_make`` returns,
and leaves such as the parameters, which ``Adam.step``,
``CrowdForecaster.load`` and ``numerical_gradient`` write in place only
while no tape that reads them awaits its backward.

A node keeps only what some backward reads, and no copy of an array
that is kept elsewhere.  A fused node keeps its inputs, its row stats
and, for attention, its softmax weights, and its backward rebuilds the
rest with the forward's own operations, so bit-identically: ``ffn`` its
hidden layer, ``masked_mha`` its q, k and v projections, its mixed
context and the join of a list of key/value sources.  Constant masks
and shifts run as epilogues on a node's own output (``linear``'s
``keep`` and ``shift``, ``layer_norm``'s ``keep``) rather than as nodes
that would keep that output a second time.  The spatial and hypergraph
branches run on segment blocks (``attention.SegmentBlocks``), so their
attention weights and graph operators are kept per block, not over all
agent pairs, and ``getitem`` is the one node that takes each branch's
output back to agent rows.
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

    def _accumulate(self, g, own=False):
        """Add the gradient contribution ``g`` to ``self.grad``.

        A first contribution is copied, so a grad never aliases an array
        that another tensor's grad or a backward closure holds, unless the
        caller made ``g`` for this call alone and says so with ``own=True``:
        then an array of the grad's shape and dtype is kept as it is.
        """
        if self.grad is not None:
            self.grad += g
        elif own and type(g) is np.ndarray and g.shape == self.data.shape and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self.grad = np.empty(self.data.shape, self.data.dtype)
            self.grad[...] = g  # broadcasts and casts

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)


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


def _broadcasting(fn, a, b, op):
    """``fn(a.data, b.data)``; numpy checks that the shapes broadcast."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not align") from None


# -- elementwise ops -----------------------------------------------------


def add(a, b):
    def bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(_broadcasting(np.add, a, b, "add"), "add", (a, b), bw)


def sub(a, b):
    def bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(_broadcasting(np.subtract, a, b, "sub"), "sub", (a, b), bw)


def mul(a, b):
    ad, bd = a.data, b.data

    def bw(g, a=a, b=b, ad=ad, bd=bd):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * bd, a.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ad, b.shape), own=True)

    return _make(_broadcasting(np.multiply, a, b, "mul"), "mul", (a, b), bw)


def exp(x):
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)

    def bw(g, x=x, out_data=out_data):
        if x.requires_grad:
            x._accumulate(g * out_data, own=True)

    return _make(out_data, "exp", (x,), bw)


def norm(x):
    """Euclidean norm over the last axis.

    The backward takes the zero subgradient where the norm is exactly
    zero, so coincident points give finite gradients.
    """
    xd = x.data
    out_data = np.sqrt(np.sum(xd * xd, axis=-1))

    def bw(g, x=x, xd=xd, out_data=out_data):
        if x.requires_grad:
            safe = np.where(out_data > 0, out_data, 1.0)[..., None]
            x._accumulate(g[..., None] * (xd / safe), own=True)

    return _make(out_data, "norm", (x,), bw)


def absval(x):
    """|x|, with the subgradient 0 at 0."""
    xd = x.data

    def bw(g, x=x, xd=xd):
        if x.requires_grad:
            x._accumulate(g * np.sign(xd), own=True)

    return _make(np.abs(xd), "absval", (x,), bw)


def atan2(y, x):
    """Elementwise arctan2 with the standard bounded partial derivatives."""
    yd, xd = y.data, x.data

    def bw(g, y=y, x=x, yd=yd, xd=xd):
        denom = np.maximum(xd * xd + yd * yd, 1e-18)
        if y.requires_grad:
            y._accumulate(_unbroadcast(g * xd / denom, y.shape), own=True)
        if x.requires_grad:
            x._accumulate(_unbroadcast(-g * yd / denom, x.shape), own=True)

    return _make(_broadcasting(np.arctan2, y, x, "atan2"), "atan2", (y, x), bw)


# -- linear algebra ------------------------------------------------------


def matmul(a, x):
    """Batched product ``a @ x`` of a constant array and a tensor over
    leading axes.

    a: [..., m, k] plain array, such as a graph operator or the decoder's
    cumulative-sum triangle; x: [..., k, n].  Only x gets a gradient.
    """
    if a.ndim < 2 or x.ndim < 2:
        raise ShapeError("matmul requires ndim >= 2 operands (reshape vectors explicitly)")
    if a.shape[-1] != x.shape[-2]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {x.shape} disagree")

    def bw(g, a=a, x=x):
        if x.requires_grad:
            x._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ g, x.shape), own=True)

    return _make(a @ x.data, "matmul", (x,), bw)


def linear(x, w, b=None, relu=False, keep=None, shift=None, residual=None):
    """Affine map ``x @ w + b`` over the last axis, as one node.

    w: [k, n]; b: [n] or None.  The weight gradient is one GEMM over x's
    leading axes folded together.  Epilogues run in place on the one
    output array, in this order: ``relu`` clamps it at zero, ``keep`` (a
    plain 0/1 array broadcastable to the output) zeroes the slots where it
    is 0, ``shift`` (a plain array broadcastable to the output) is added
    as a constant, and ``residual`` (a tensor of the output's shape) is
    added.  The backward reads the ReLU mask off the output, or off a bool
    mask kept when another epilogue follows the ReLU, and scales the
    gradient by ``keep``.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or (b is not None and b.shape != (w.shape[1],)):
        raise ShapeError(f"linear: x {x.shape}, w {w.shape}, b {None if b is None else b.shape} disagree")
    xd, wd = x.data, w.data
    out = linear_data(xd, wd, None if b is None else b.data)
    if relu:
        np.maximum(out, 0.0, out=out)
    active = out > 0 if relu and (keep is not None or shift is not None or residual is not None) else None
    try:
        if keep is not None:
            out *= keep
        if shift is not None:
            out += shift
    except ValueError:
        raise ShapeError(f"linear: epilogue arrays do not broadcast to the output {out.shape}") from None
    if residual is not None:
        if residual.shape != out.shape:
            raise ShapeError(f"linear: residual {residual.shape} does not match output {out.shape}")
        out += residual.data

    def bw(g):
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        if relu:
            g = g * (out > 0 if active is None else active)
        if keep is not None:
            g = g * keep
        gx, gw, gb = linear_grads(g, xd, wd, x.requires_grad, b is not None and b.requires_grad)
        _accumulate_grads(((x, gx), (w, gw), (b, gb)))

    # the residual leads the parents, so the tape is walked in the order of
    # the separate add node it replaces
    parents = (() if residual is None else (residual,)) + (x, w) + (() if b is None else (b,))
    return _make(out, "linear", parents, bw)


def linear_data(xd, wd, bd):
    """``xd @ wd + bd`` on plain arrays, as one GEMM over the folded leading
    axes; the bias, if any, is added in place."""
    out = xd.reshape(-1, wd.shape[0]) @ wd
    if bd is not None:
        out += bd
    return out.reshape(xd.shape[:-1] + wd.shape[1:])


def linear_grads(g, xd, wd, need_x=True, need_b=True):
    """Gradients (x or None, w, b or None) of ``xd @ wd + b`` from its output gradient."""
    k, n = wd.shape
    g2 = g.reshape(-1, n)
    gx = (g2 @ wd.T).reshape(xd.shape) if need_x else None
    return gx, xd.reshape(-1, k).T @ g2, g2.sum(axis=0) if need_b else None


def ffn(x, w1, b1, w2, b2, norm, residual):
    """Feed-forward sublayer ``ReLU(LN(x) @ w1 + b1) @ w2 + b2``, plus
    ``residual`` unless it is None, as one node.

    ``norm`` is the (gain, bias) pair of the layer norm, or None to feed x
    as it is.  The tape keeps x and the norm's row stats; the backward
    rebuilds the normalized rows and the hidden layer with the forward's
    own operations, then writes the hidden gradient over the rebuilt
    hidden layer.
    """
    k, n = w1.shape[0], w2.shape[1]
    if (w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != k or w2.shape[0] != w1.shape[1]
            or b1.shape != (w1.shape[1],) or b2.shape != (n,)):
        raise ShapeError(f"ffn: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape} disagree")
    w1d, b1d, w2d, b2d = w1.data, b1.data, w2.data, b2.data
    xn, stats = prenorm_data(x.data, norm)
    h = linear_data(xn, w1d, b1d)
    np.maximum(h, 0.0, out=h)
    out = linear_data(h, w2d, b2d).reshape(x.shape[:-1] + (n,))
    if residual is not None:
        if residual.shape != out.shape:
            raise ShapeError(f"ffn: residual {residual.shape} does not match output {out.shape}")
        out += residual.data

    def bw(g):
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        g2 = g.reshape(-1, n)
        xn = prenorm_rebuild(x.data, norm, stats)
        h = linear_data(xn, w1d, b1d)
        np.maximum(h, 0.0, out=h)
        gw2, gb2 = h.T @ g2, g2.sum(axis=0)
        active = h > 0
        dh = np.matmul(g2, w2d.T, out=h)
        dh *= active
        dxn, gw1, gb1 = linear_grads(dh, xn, w1d, x.requires_grad or norm is not None)
        del xn, h, dh, active
        _accumulate_grads(((w2, gw2), (b2, gb2), (w1, gw1), (b1, gb1)))
        if dxn is not None:
            prenorm_backward(x, norm, stats, dxn)

    # the residual leads the parents, so the tape is walked in the order of
    # the separate nodes this one replaces
    parents = (() if residual is None else (residual,)) + (x, w1, b1, w2, b2) + (() if norm is None else norm)
    return _make(out, "ffn", parents, bw)


# -- shape ops -----------------------------------------------------------


def reshape(x, shape):
    old = x.shape

    def bw(g, x=x, old=old):
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return _make(x.data.reshape(shape), "reshape", (x,), bw, check=False)


def broadcast_to(x, shape):
    """x repeated along new leading axes or its size-1 axes, as numpy does."""
    old = x.shape

    def bw(g, x=x, old=old):
        if x.requires_grad:
            x._accumulate(_unbroadcast(g, old))

    return _make(np.broadcast_to(x.data, shape), "broadcast_to", (x,), bw, check=False)


def concat(tensors, axis):
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


def stack(tensors, axis):
    tensors = list(tensors)

    def bw(g, tensors=tensors, axis=axis):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _make(np.stack([t.data for t in tensors], axis=axis), "stack", tuple(tensors), bw, check=False)


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


def tsum(x, axis=None):
    def bw(g, x=x, axis=axis):
        if x.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.shape))

    return _make(x.data.sum(axis=axis), "sum", (x,), bw)


# -- neural-net primitives ----------------------------------------------


def _row_max(y):
    """max(axis=-1, keepdims=True), NaN where a row holds NaN.

    ``max`` over a short last axis costs about 3 ns an element, a
    ``np.maximum`` over one key column about 1 µs plus under 1 ns a row,
    and the column reads are strided.  So the column loop runs for rows of
    at most 48 keys with at least 32 rows per key, on arrays of at most
    2**18 elements: on [37, 8, 19, 19] it takes a quarter of the
    reduction's time, on [4, 8, 2, 16] 3.5 times it, and on
    [64, 8, 32, 32] (cache misses) more than twice it.
    """
    keys = y.shape[-1]
    if not (keys <= 48 and 32 * keys * keys <= y.size <= 2**18):
        return y.max(axis=-1, keepdims=True)
    rowmax = y[..., :1].copy()
    for j in range(1, keys):
        np.maximum(rowmax, y[..., j:j + 1], out=rowmax)
    return rowmax


def softmax_data(y, absent):
    """Row softmax over the last axis with max-subtraction, in place on the
    plain array of logits ``y``; returns ``y``.

    ``absent`` (bool, broadcastable) marks keys that get weight 0.  A row
    with every key absent yields an all-zero row; callers must not attend
    from such rows.  NaN or +inf at a present key is an error, not an
    all-zero row.  Every step runs in place: absent keys are set to -inf
    only when there are any, the row max of short rows is a loop over key
    columns (``_row_max``), and the row sum is an ``einsum``.
    """
    if np.any(absent):
        np.copyto(y, -np.inf, where=absent)  # an absent key's logit is never read
    rowmax = _row_max(y)  # the max of a row holding NaN is NaN
    if not (rowmax < np.inf).all():
        raise NonFiniteError("softmax logits contain NaN or +inf at a present key")
    rowmax[rowmax == -np.inf] = 0.0  # a row whose every key is absent stays all -inf
    y -= rowmax
    np.exp(y, out=y)  # exp(-inf) = 0 at absent keys
    s = np.einsum("...i->...", y)[..., None]
    s[s == 0.0] = 1.0  # an all-absent row is zero already
    y /= s
    return y


def softmax_backward_data(g, y):
    """Gradient of the logits from the output gradient ``g`` and output
    ``y``, in place on ``g``; returns ``g``."""
    g -= np.einsum("...i,...i->...", g, y)[..., None]
    g *= y
    return g


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias, keep):
    """Normalize the last axis to zero mean / unit variance, then affine.

    Rows are folded to [R, d].  The tape keeps the row means and inverse
    deviations, [R] each; the backward rebuilds the normalized rows from
    ``x.data`` (``layer_norm_rows``), so they are bit-identical.  ``keep``
    (a plain 0/1 array broadcastable to the output, or None) is an
    epilogue that zeroes the slots where it is 0, as in ``linear``.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    norm = (gain, bias)
    out, stats = prenorm_data(x.data, norm)
    out = out.reshape(x.shape)
    if keep is not None:
        out *= keep

    def bw(g):
        if keep is not None:
            g = g * keep
        prenorm_backward(x, norm, stats, g.reshape(-1, d))

    return _make(out, "layer_norm", (x, gain, bias), bw)


def layer_norm_rows(x2, mu, inv):
    """The normalized rows of ``x2`` [R, d], rebuilt from the row stats by
    the forward's own two operations."""
    xhat = x2 - mu[:, None]
    xhat *= inv[:, None]
    return xhat


# A pre-norm sublayer (``ffn``, ``attention.masked_mha``) runs the layer norm
# of its input as a prologue: the forward normalizes into a temporary, the
# tape keeps the row stats, and the backward rebuilds the normalized rows
# from the input.  ``norm`` is a (gain, bias) pair, or None for no norm.


def prenorm_data(xd, norm):
    """The rows [R, d] of the array ``xd`` through ``norm`` and their row
    stats (mu, inv), the row means and inverse deviations [R]; without a
    norm, xd's own rows and None.  The row means are GEMVs with a 1/d
    vector."""
    d = xd.shape[-1]
    x2 = xd.reshape(-1, d)
    if norm is None:
        return x2, None
    mean_of = np.full(d, 1.0 / d, dtype=x2.dtype)
    mu = x2 @ mean_of
    xhat = x2 - mu[:, None]
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out @ mean_of + LAYER_NORM_EPS)
    xhat *= inv[:, None]
    np.multiply(xhat, norm[0].data, out=out)
    out += norm[1].data
    return out, (mu, inv)


def prenorm_rebuild(xd, norm, stats):
    """The backward's copy of ``prenorm_data``'s rows, bit-identical."""
    x2 = xd.reshape(-1, xd.shape[-1])
    if norm is None:
        return x2
    out = layer_norm_rows(x2, *stats)
    out *= norm[0].data
    out += norm[1].data
    return out


def prenorm_grad(xd, norm, stats, g2, need_x):
    """The gradient [R, d] of the rows of ``xd`` from the gradient ``g2``
    [R, d] of the prologue's rows, or None without ``need_x``; the norm's
    gain and bias take theirs.  ``g2`` must be the caller's own.  The
    normalized rows are rebuilt once more here, so a caller need not hold
    them while its own temporaries are alive."""
    if norm is None:
        return g2 if need_x else None
    gain, bias = norm
    d = xd.shape[-1]
    xhat = layer_norm_rows(xd.reshape(-1, d), *stats)
    gx = g2 * xhat
    _accumulate_grads(((bias, g2.sum(axis=0)), (gain, gx.sum(axis=0))))
    if not need_x:
        return None
    # dxhat = g * gain; its row means m1 and those of dxhat * xhat (m2)
    # are GEMVs of g and g * xhat with gain / d
    gain_of = gain.data / d
    m1, m2 = g2 @ gain_of, gx @ gain_of
    g2 = g2 * gain.data  # from here on, the gradient of x
    g2 -= m1[:, None]
    g2 -= np.multiply(xhat, m2[:, None], out=gx)
    g2 *= stats[1][:, None]
    return g2


def prenorm_backward(x, norm, stats, g2):
    """Hand the gradient ``g2`` [R, d] of the prologue's rows through the
    norm to the tensor x, the gain and the bias (``prenorm_grad``)."""
    gx = prenorm_grad(x.data, norm, stats, g2, x.requires_grad)
    if gx is not None:
        x._accumulate(gx.reshape(x.shape), own=True)


def _accumulate_grads(pairs):
    """Hand each (tensor, fresh gradient or None) pair to its tensor."""
    for t, grad in pairs:
        if grad is not None and t.requires_grad:
            t._accumulate(grad, own=True)


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


def numerical_gradient(f, tensor_obj, indices, h):
    """Central finite differences of scalar-valued f w.r.t. the tensor's
    flat entries ``indices``, with step ``h``."""
    flat = tensor_obj.data.reshape(-1)
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
