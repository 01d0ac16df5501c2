"""Masked multi-head attention, sinusoidal encodings, the distance-bias
mask, and the segment-block layout of a window's agents.

Masks are additive: -inf at absent key positions (tracked as a boolean
array so tensors stay finite) and a learned affine distance bias
everywhere else.  Fully masked query rows produce zero output rows.
Attention has no segment path: the spatial branch gathers its inputs
into ``SegmentBlocks`` blocks before attention and scatters its output
after it, so a block is one more leading axis here.

``capture`` keeps what ``crowdcast inspect`` shows of a forward pass: the
attention weights and the hyperedges it forms.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .config import ConfigError

_captured = None  # the dict of the innermost open ``capture``, or None


@contextmanager
def capture():
    """Keep a copy of what each forward pass in the body computes for
    inspection; yields the dict it fills.

    ``masked_mha`` stores its weights [..., h, Lq, Lk] under its parameter
    prefix (``spatial/l0/attn``, ``fusion/self/attn``), and
    ``hypergraph.multiscale_group_features`` appends a {"scale", "edges"}
    record per KNN hypergraph under ``hyper/edges``.  Without an open
    capture nothing is copied.  The outer capture, if any, is restored on
    exit.
    """
    global _captured
    outer, _captured = _captured, {}
    try:
        yield _captured
    finally:
        _captured = outer


class SegmentBlocks:
    """The agents of a window grouped into one block per segment, padded to
    the largest segment: the one layout of its agents that the spatial
    branch and the hypergraph branch run on, [..., S, n, ...] blocks
    instead of all [..., N, N] agent pairs.

    segment: [N] segment number 0..S-1 of each agent, every number used,
    as ``TrajectoryWindow.segment`` numbers them.  ``counts`` [S] holds
    each segment's agent count and ``pad`` [S, n] marks the pad slots.
    ``gather`` takes a branch's inputs from agent rows to blocks, where a
    pad slot repeats a row of its segment, and ``scatter`` takes its
    output back to agent rows and drops the pad slots.  ``dense`` lays
    block pairs out as agent pairs; it serves only ``capture``.
    """

    def __init__(self, segment):
        seg = np.asarray(segment)
        counts = np.bincount(seg)
        if not counts.all():
            raise ValueError(f"segment labels must number 0..S-1; unused: {np.flatnonzero(counts == 0).tolist()}")
        self.counts, self.rows_total, self.count, self.size = counts, len(seg), len(counts), int(counts.max())
        self.pad = np.arange(self.size) >= counts[:, None]  # [S, n]
        order = np.argsort(seg, kind="stable")  # the rows of each segment, in order
        starts = np.cumsum(counts) - counts
        self.rows = order[starts[:, None] + np.minimum(np.arange(self.size), counts[:, None] - 1)]
        self.seg = seg
        self.slot = np.empty_like(seg)
        self.slot[order] = np.arange(len(seg)) - np.repeat(starts, counts)

    def gather(self, x, axis=-2):
        """x with its agent ``axis`` (N rows) split into blocks (S, n)."""
        return np.take(x, self.rows, axis=axis)

    def scatter(self, x, lead=0):
        """x [*lead, S, n, ...] (an array, or a tensor as one ``getitem``
        node) with its block axes after ``lead`` leading axes joined back
        into agent rows, which come first: [N, *lead, ...]."""
        agent, *grid = np.ix_(np.arange(self.rows_total), *map(np.arange, x.shape[:lead]))
        return x[(*grid, self.seg[agent], self.slot[agent])]

    def dense(self, w):
        """Block pairs [..., S, n, n] as agent pairs [..., N, N], zero
        between agents of different segments."""
        pairs = w[..., self.seg[:, None], self.slot[:, None], self.slot]
        return np.where(self.seg[:, None] == self.seg, pairs, 0)


@dataclass
class AttentionMask:
    """Additive mask: finite learned bias plus an absent-key flag array."""

    bias: Tensor  # [..., rows, cols] finite entries, or None for no bias
    absent: np.ndarray  # bool, broadcastable to bias; True = key missing

    def values(self):
        """Dense mask in R U {-inf} (the entries the softmax sees)."""
        bias = 0.0 if self.bias is None else self.bias.data
        shape = np.broadcast_shapes(np.shape(bias), self.absent.shape)
        v = np.broadcast_to(bias, shape).copy()
        v[np.broadcast_to(self.absent, shape)] = -np.inf
        return v


@functools.lru_cache(maxsize=16)
def positional_encoding(length, d_model):
    """Sinusoidal table [length, d_model], base-10000 geometric frequencies.

    Built once per (length, d_model) and returned read-only, since every
    caller shares it: each forward pass asks for the table of its observed
    window length.
    """
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs even d_model, got {d_model}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, idx / d_model)
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


def pairwise_distances(points):
    """Euclidean [..., n, n] distances with an exact-zero diagonal."""
    p = np.asarray(points, dtype=np.float64)
    diff = p[..., :, None, :] - p[..., None, :, :]
    d2 = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return np.sqrt(np.maximum(d2, 0.0))


def distance_bias_mask(distances, absent, weight, bias):
    """Mask with the learned bias ``weight * distance + bias`` and absent keys.

    distances: [..., Lq, Lk] (agent distances per timestep and block, or
    time gaps |t - t'|); absent: bool array broadcastable to the mask,
    True for a key no query may attend to; weight, bias: [1] parameters.
    """
    dist = Tensor(distances, dtype=weight.dtype)
    shape = np.broadcast_shapes(absent.shape, dist.shape)
    return AttentionMask(bias=ad.add(ad.mul(weight, dist), bias), absent=np.broadcast_to(absent, shape))


MHA_GATES = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def masked_mha(params, prefix, q_in, kv_in, heads, mask, norm):
    """Pre-norm residual sublayer ``q_in + MHA(LN(q_in), LN(kv_in))``:
    multi-head attention with an additive mask, heads mixed by a final FC.

    q_in: [..., Lq, d_model]; kv_in: [..., Lk, d_model] with the same
    leading axes, or a list of such sources, whose rows the node joins
    along Lk as a temporary; mask: an ``AttentionMask`` whose bias, if
    any, is broadcastable to [..., Lq, Lk].  A fully masked query row gets
    an all-zero softmax row, so its output is the output bias plus its
    query.

    One tape node: the forward runs projections, head split, scaled
    logits, mask, softmax, context and output projection on plain arrays,
    and its backward gives the gradients of the inputs, the eight weights
    and biases, the norms and the mask bias.  ``norm`` is the layer-norm
    prologue: the prefix of the ``g``/``b`` parameters that normalize both
    inputs (one norm when ``q_in is kv_in``), or a (query, key/value) pair
    of prefixes.

    The tape keeps the inputs, their row stats, the mask and the softmax
    weights, no copy of them: the backward joins a list of sources again
    and rebuilds the normalized inputs, the q, k and v projections and the
    mixed context (weights times v) with the forward's own operations, so
    they are bit-identical, and frees each after its last read.  The
    query input is added in place to the output array, and the backward
    hands it the output gradient first.  An open ``capture`` keeps a copy
    of the weights [..., h, Lq, Lk] under ``prefix``.
    """
    d_model = q_in.shape[-1]
    if d_model % heads != 0:
        raise ConfigError(f"heads={heads} must divide d_model={d_model}")
    sources = list(kv_in) if isinstance(kv_in, (list, tuple)) else [kv_in]
    lead, lq, lk = q_in.shape[:-2], q_in.shape[-2], sum(s.shape[-2] for s in sources)
    for s in sources:
        if s.shape[:-2] != lead or s.shape[-1] != d_model:
            raise ShapeError(f"masked_mha: query {q_in.shape} and key/value {s.shape} disagree")
    dh = d_model // heads
    w = {gate: params[f"{prefix}/{gate}"] for gate in MHA_GATES}
    wd = {gate: t.data for gate, t in w.items()}
    nq, nkv = (norm, norm) if isinstance(norm, str) else norm
    shared = q_in is kv_in and nq == nkv  # one input array for queries, keys and values
    ln_q, ln_kv = ((params[f"{n}/g"], params[f"{n}/b"]) for n in (nq, nkv))

    def kv_data():  # the key/value rows; several sources are joined as a temporary
        return sources[0].data if len(sources) == 1 else np.concatenate([s.data for s in sources], axis=-2)

    xq, stats_q = ad.prenorm_data(q_in.data, ln_q)
    xkv, stats_kv = (xq, stats_q) if shared else ad.prenorm_data(kv_data(), ln_kv)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=xq.dtype)

    def split(x, length):  # rows [R, d] -> [*lead, h, L, dh]
        return x.reshape(lead + (length, heads, dh)).swapaxes(-3, -2)

    def merge(xh, length):  # [*lead, h, L, dh] -> [*lead, L, d]
        return xh.swapaxes(-3, -2).reshape(lead + (length, d_model))

    qh = split(ad.linear_data(xq, wd["wq"], wd["bq"]), lq)
    kh = split(ad.linear_data(xkv, wd["wk"], wd["bk"]), lk)
    vh = split(ad.linear_data(xkv, wd["wv"], wd["bv"]), lk)
    logits = qh @ kh.swapaxes(-1, -2)
    logits *= scale

    bias, absent = mask.bias, mask.absent
    # insert the head axis explicitly; remaining dims broadcast
    if bias is not None:
        logits += bias.data.reshape(bias.shape[:-2] + (1,) + bias.shape[-2:])
    if absent.ndim == logits.ndim - 1:
        absent = absent[..., None, :, :]
    attn = ad.softmax_data(logits, absent)

    if _captured is not None:
        _captured[prefix] = attn.copy()

    mixed = merge(attn @ vh, lq)
    out_data = ad.linear_data(mixed, wd["wo"], wd["bo"])
    out_data += q_in.data

    def bw(g):
        if q_in.requires_grad:
            q_in._accumulate(g)
        grads = {}
        # rebuild the forward's arrays from the inputs, each by the
        # forward's own operations, and free each after its last read
        xq = ad.prenorm_rebuild(q_in.data, ln_q, stats_q)
        kv = None if shared else kv_data()  # kept for the key/value norm's backward
        xkv = xq if shared else ad.prenorm_rebuild(kv, ln_kv, stats_kv)
        vh = split(ad.linear_data(xkv, wd["wv"], wd["bv"]), lk)
        mixed = merge(attn @ vh, lq)
        dmixed, grads["wo"], grads["bo"] = ad.linear_grads(g, mixed, wd["wo"])
        del mixed
        dctx = split(dmixed, lq)
        dattn = dctx @ vh.swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ dctx
        del dmixed, dctx, vh
        dlogits = ad.softmax_backward_data(dattn, attn)
        if bias is not None and bias.requires_grad:
            shape = bias.shape[:-2] + (1,) + bias.shape[-2:]
            bias._accumulate(ad._unbroadcast(dlogits, shape).reshape(bias.shape))
        dlogits *= scale
        qh = split(ad.linear_data(xq, wd["wq"], wd["bq"]), lq)
        kh = split(ad.linear_data(xkv, wd["wk"], wd["bk"]), lk)
        dqh = dlogits @ kh
        dkh = (qh.swapaxes(-1, -2) @ dlogits).swapaxes(-1, -2)
        del dattn, dlogits, qh, kh

        # the norms' gains and biases need the input gradients of both paths
        dq_in, grads["wq"], grads["bq"] = ad.linear_grads(merge(dqh, lq), xq, wd["wq"])
        del dqh
        dk_in, grads["wk"], grads["bk"] = ad.linear_grads(merge(dkh, lk), xkv, wd["wk"])
        del dkh
        dv_in, grads["wv"], grads["bv"] = ad.linear_grads(merge(dvh, lk), xkv, wd["wv"])
        del dvh, xq, xkv
        ad._accumulate_grads((w[gate], grads[gate]) for gate in MHA_GATES)
        if shared:  # one input: accumulate its three paths once
            dq_in += dk_in
            dq_in += dv_in
            ad.prenorm_backward(q_in, ln_q, stats_q, dq_in)
            return
        ad.prenorm_backward(q_in, ln_q, stats_q, dq_in)
        dk_in += dv_in
        dkv = ad.prenorm_grad(kv, ln_kv, stats_kv, dk_in, any(s.requires_grad for s in sources))
        if dkv is None:
            return
        dkv = dkv.reshape(lead + (lk, d_model))
        if len(sources) == 1:
            sources[0]._accumulate(dkv, own=True)
            return
        bounds = np.cumsum([s.shape[-2] for s in sources[:-1]])
        for s, part in zip(sources, np.split(dkv, bounds, axis=-2)):
            if s.requires_grad:
                s._accumulate(part)

    inputs = (q_in,) if q_in is kv_in else (q_in, *sources)
    extra = () if bias is None else (bias,)
    # the query leads the parents a second time, so the tape is walked in
    # the order of the separate residual add node this one replaces
    return ad._make(out_data, "masked_mha", (q_in, *inputs, *w.values(), *ln_q, *ln_kv, *extra), bw)
