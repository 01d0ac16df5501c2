"""Pair-wise interaction encoders over agents (spatial) and time (temporal).

Both encoders use pre-norm blocks: x + MHA(LN(x)) then x + FFN(LN(x)),
with additive masks carrying presence and a learned distance/time-gap
bias.  The spatial encoder adds a distance-thresholded graph-convolution
branch residually after attention.  The temporal encoder adds sinusoidal
codes of each token's timestep.  Agents are unordered, so the spatial
encoder adds only the code of the timestep it attends at, the same for
every agent.  Absent (agent, timestep) slots are zeroed on output.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .attention import (
    build_spatial_masks_batch,
    build_temporal_mask,
    masked_mha,
    pairwise_distances,
    positional_encoding,
)
from .autodiff import Tensor


def ffn_forward(params, prefix, x):
    h = ad.relu(ad.add(ad.matmul(x, params[f"{prefix}/w1"]), params[f"{prefix}/b1"]))
    return ad.add(ad.matmul(h, params[f"{prefix}/w2"]), params[f"{prefix}/b2"])


def layer_norm_p(params, prefix, x):
    return ad.layer_norm(x, params[f"{prefix}/g"], params[f"{prefix}/b"])


def gcn_adjacency(positions, presence, radius, segment=None):
    """Symmetric-normalized proximity adjacency per timestep.

    positions: [T, N, 2]; presence: [T, N]; segment: optional [N] scene
    number per agent.  Edges link present agents of one segment closer
    than ``radius`` (self-loops included); absent agents get zero rows and
    columns.
    """
    presence = np.asarray(presence, dtype=bool)
    dist = pairwise_distances(positions)
    pair_ok = presence[:, :, None] & presence[:, None, :]
    if segment is not None:
        pair_ok = pair_ok & (segment[:, None] == segment[None, :])
    a = ((dist < radius) & pair_ok).astype(np.float64)
    deg = a.sum(axis=-1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv[:, :, None] * a * inv[:, None, :]


def _encoder_block(params, prefix, x, heads, mask, adj=None, record=None, record_key=None):
    """Pre-norm attention (+ optional GCN residual) + feed-forward."""
    attn_in = layer_norm_p(params, f"{prefix}/ln1", x)
    attended = masked_mha(params, f"{prefix}/attn", attn_in, attn_in, heads,
                          mask=mask, record=record, record_key=record_key)
    x = ad.add(x, attended)
    if adj is not None:
        conv = ad.relu(ad.matmul(ad.matmul(adj, x), params[f"{prefix}/gcn/w"]))
        x = ad.add(x, conv)
    return ad.add(x, ffn_forward(params, f"{prefix}/ffn", layer_norm_p(params, f"{prefix}/ln2", x)))


def _encoder_stack(params, cfg, prefix, tokens, presence, codes, mask, adj=None, record=None):
    """Embed, zero absent slots, add timestep codes, run the blocks, LN, zero.

    tokens: [..., 2] inputs; presence: bool over tokens' leading axes;
    codes: timestep codes broadcastable to the embedded tokens; adj:
    optional GCN adjacency for every block.
    """
    dtype = params[f"{prefix}/embed/w"].dtype
    keep = Tensor(presence[..., None].astype(dtype))
    x = ad.add(ad.matmul(Tensor(tokens, dtype=dtype), params[f"{prefix}/embed/w"]), params[f"{prefix}/embed/b"])
    x = ad.mul(x, keep)
    x = ad.add(x, Tensor(codes, dtype=dtype))
    if adj is not None:
        adj = Tensor(adj, dtype=dtype)
    for layer in range(cfg.layers):
        x = _encoder_block(params, f"{prefix}/l{layer}", x, cfg.heads, mask, adj=adj,
                           record=record, record_key=f"attn/{prefix}/{layer}")
    x = layer_norm_p(params, f"{prefix}/ln_out", x)
    return ad.mul(x, keep)


def spatial_forward(params, cfg, x_obs, presence_obs, record=None, scene_positions=None, segment=None):
    """Cross-agent attention per timestep; returns [N, T_i, d_model].

    x_obs: [N, T_i, 2] inputs the tokens embed (the model passes each
    agent's track relative to its own last observed position), absent
    slots zero; presence_obs: [N, T_i] bool.  scene_positions: [N, T_i, 2]
    positions in one shared frame, from which the distance-bias mask and
    the GCN adjacency take the distances between agents; defaults to x_obs.
    segment: optional [N] scene number per agent; agents of different
    segments neither attend to nor convolve with each other.

    Every token also gets the sinusoidal code of its timestep.  A relative
    track is exactly zero at the agent's last observed step, so without
    the code every agent's token there would be the embedding bias alone;
    that bias starts at zero, and layer norm of a near-constant vector
    scales each change to it by up to 1/sqrt(1e-5), about 316.
    """
    if scene_positions is None:
        scene_positions = x_obs
    tokens_t = np.asarray(x_obs, dtype=np.float64).transpose(1, 0, 2)  # [T, N, 2]
    pos_t = np.asarray(scene_positions, dtype=np.float64).transpose(1, 0, 2)
    pres_t = np.asarray(presence_obs, dtype=bool).T  # [T, N]
    mask = build_spatial_masks_batch(pos_t, pres_t, params["spatial/mask/w"], params["spatial/mask/b"], segment)
    adj = gcn_adjacency(pos_t, pres_t, cfg.gcn_radius, segment)
    codes = positional_encoding(len(tokens_t), cfg.d_model)[:, None, :]  # same code for every agent
    x = _encoder_stack(params, cfg, "spatial", tokens_t, pres_t, codes, mask, adj=adj, record=record)
    return ad.swapaxes(x, 0, 1)  # [N, T, d]


def temporal_forward(params, cfg, x_obs, presence_obs, record=None):
    """Per-agent attention across observed timesteps; returns [N, T_i, d_model]."""
    pres = np.asarray(presence_obs, dtype=bool)  # [N, T]
    mask = build_temporal_mask(pres, params["temporal/mask/w"], params["temporal/mask/b"])
    codes = positional_encoding(pres.shape[1], cfg.d_model)
    return _encoder_stack(params, cfg, "temporal", np.asarray(x_obs, dtype=np.float64), pres, codes, mask,
                          record=record)
