"""Masked multi-head attention, sinusoidal encodings, and mask builders.

Masks are additive: -inf at absent key positions (tracked as a boolean
array so tensors stay finite) and a learned affine distance bias
everywhere else.  Fully masked query rows produce zero output rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError


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


def positional_encoding(length, d_model, dtype=np.float64):
    """Sinusoidal table [length, d_model], base-10000 geometric frequencies."""
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs even d_model, got {d_model}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, idx / d_model)
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table.astype(dtype)


def pairwise_distances(points):
    """Euclidean [N, N] distances with an exact-zero diagonal."""
    p = np.asarray(points, dtype=np.float64)
    diff = p[..., :, None, :] - p[..., None, :, :]
    d2 = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return np.sqrt(np.maximum(d2, 0.0))


def build_spatial_masks_batch(positions, presence, weight, bias, segment=None):
    """Per-timestep spatial masks stacked on a leading time axis.

    positions: [T, N, 2]; presence: [T, N]; segment: optional [N] scene
    number per agent (see ``TrajectoryWindow``).  Timesteps with no present
    agent simply yield fully absent key columns, and an agent of another
    segment is an absent key.
    """
    presence = np.asarray(presence, dtype=bool)
    dist = pairwise_distances(positions)  # [T, N, N]
    bias_t = ad.add(ad.mul(weight, Tensor(dist, dtype=weight.dtype)), bias)
    absent = ~presence[:, None, :]
    if segment is not None:
        absent = absent | (segment[:, None] != segment[None, :])
    return AttentionMask(bias=bias_t, absent=np.broadcast_to(absent, dist.shape))


def build_temporal_mask(presence_n, weight, bias):
    """Mask over timesteps for agents: -inf at absent steps, else w*|t-t'|+b.

    presence_n: [..., T] boolean presence along time.  The same |t-t'| gap
    matrix serves every agent.
    """
    presence_n = np.asarray(presence_n, dtype=bool)
    t = presence_n.shape[-1]
    steps = np.arange(t, dtype=np.float64)
    gaps = np.abs(steps[:, None] - steps[None, :])
    bias_t = ad.add(ad.mul(weight, Tensor(gaps, dtype=weight.dtype)), bias)
    absent = ~presence_n[..., None, :]  # key timestep absent
    return AttentionMask(bias=bias_t, absent=np.broadcast_to(absent, presence_n.shape[:-1] + (t, t)))


def _split_heads(x, heads):
    """[..., L, d] -> [..., h, L, d/h]"""
    l, d = x.shape[-2], x.shape[-1]
    x = ad.reshape(x, x.shape[:-2] + (l, heads, d // heads))
    return ad.swapaxes(x, -3, -2)


def _merge_heads(x):
    """[..., h, L, dh] -> [..., L, h*dh]"""
    h, l, dh = x.shape[-3], x.shape[-2], x.shape[-1]
    x = ad.swapaxes(x, -3, -2)
    return ad.reshape(x, x.shape[:-3] + (l, h * dh))


def masked_mha(params, prefix, q_in, kv_in, heads, mask=None, record=None, record_key=None, return_attn=False):
    """Multi-head attention with an additive mask, heads mixed by a final FC.

    q_in: [..., Lq, d_model]; kv_in: [..., Lk, d_model]; mask bias must be
    broadcastable to [..., Lq, Lk].  Fully masked query rows come out as
    exact zeros (softmax row is all-zero there).
    """
    d_model = q_in.shape[-1]
    if d_model % heads != 0:
        raise ConfigError(f"heads={heads} must divide d_model={d_model}")
    scale = 1.0 / np.sqrt(d_model // heads)

    q = ad.add(ad.matmul(q_in, params[f"{prefix}/wq"]), params[f"{prefix}/bq"])
    k = ad.add(ad.matmul(kv_in, params[f"{prefix}/wk"]), params[f"{prefix}/bk"])
    v = ad.add(ad.matmul(kv_in, params[f"{prefix}/wv"]), params[f"{prefix}/bv"])

    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    logits = ad.mul(ad.matmul(qh, ad.swapaxes(kh, -1, -2)), Tensor(scale, dtype=q_in.dtype))

    absent = None
    if mask is not None:
        # insert the head axis explicitly; remaining dims broadcast
        if mask.bias is not None:
            bias = mask.bias
            logits = ad.add(logits, ad.reshape(bias, bias.shape[:-2] + (1,) + bias.shape[-2:]))
        absent = mask.absent
        if absent.ndim == logits.ndim - 1:
            absent = absent[..., None, :, :]
    attn = ad.masked_softmax(logits, absent)

    if record is not None and record_key is not None:
        record[record_key] = attn.data.copy()

    mixed = _merge_heads(ad.matmul(attn, vh))
    out = ad.add(ad.matmul(mixed, params[f"{prefix}/wo"]), params[f"{prefix}/bo"])
    if return_attn:
        return out, attn
    return out


def mha_param_shapes(d_model):
    return {
        "wq": (d_model, d_model), "bq": (d_model,),
        "wk": (d_model, d_model), "bk": (d_model,),
        "wv": (d_model, d_model), "bv": (d_model,),
        "wo": (d_model, d_model), "bo": (d_model,),
    }
