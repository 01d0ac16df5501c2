"""Pair-wise interaction encoders over agents (spatial) and time (temporal).

Both encoders stack one pre-norm block, ``encoder_block``: x + MHA(LN(x))
then x + FFN(LN(x)), with additive masks carrying presence and a learned
distance/time-gap bias.  Fusion's self-attention runs the same block.
The spatial encoder adds a distance-thresholded graph-convolution branch
residually after attention.  The temporal encoder adds sinusoidal codes
of each token's timestep.  Agents are unordered, so the spatial encoder
adds only the code of the timestep it attends at, the same for every
agent.  Absent (agent, timestep) slots are zeroed on output.  The
spatial encoder runs on the window's segment blocks from its numpy
inputs until one index node takes its output to agent rows.

``graph_convolve`` (ReLU(A X Theta)) runs the spatial GCN residual and the
hypergraph branch; ``track_embedding`` embeds each agent's observed track
for the hypergraph branch and the CVAE head.
"""

from __future__ import annotations

import numpy as np

from . import attention
from . import autodiff as ad
from .attention import distance_bias_mask, masked_mha, pairwise_distances, positional_encoding
from .autodiff import Tensor


def ffn_forward(params, prefix, x, residual=None, norm=None):
    """affine -> ReLU -> affine, plus ``residual`` if given, as one ``ffn``
    node; ``norm`` is the prefix of a layer norm run on x first."""
    ln = None if norm is None else (params[f"{norm}/g"], params[f"{norm}/b"])
    return ad.ffn(x, *(params[f"{prefix}/{name}"] for name in ("w1", "b1", "w2", "b2")), norm=ln, residual=residual)


def layer_norm_p(params, prefix, x, keep=None):
    return ad.layer_norm(x, params[f"{prefix}/g"], params[f"{prefix}/b"], keep=keep)


def track_embedding(params, prefix, x, presence):
    """ReLU-affine embedding [..., d] of each agent's flattened track.

    x: [..., T, 2]; presence: [..., T] bool.  Absent slots are zero-filled
    before flattening, so the embedding reads the visible track only.
    Parameters ``{prefix}/w`` and ``{prefix}/b``.
    """
    w = params[f"{prefix}/w"]
    presence = np.asarray(presence, dtype=bool)
    flat = (np.asarray(x) * presence[..., None]).reshape(presence.shape[:-1] + (-1,))
    return ad.linear(Tensor(flat, dtype=w.dtype), w, params[f"{prefix}/b"], relu=True)


def graph_convolve(operator, x, theta, residual=None):
    """First-order graph convolution ReLU(A X Theta) (Kipf & Welling), plus
    ``residual`` if given.

    operator: [..., n, n] array A over the agents of one segment block, a
    proximity adjacency per timestep or a hypergraph walk operator; x:
    [..., n, d_in]; theta: [d_in, d_out].
    """
    a = np.asarray(operator, dtype=theta.dtype)
    return ad.linear(ad.matmul(a, x), theta, relu=True, residual=residual)


def gcn_adjacency(dist, pair_ok, radius):
    """Symmetric-normalized proximity adjacency per timestep.

    dist: [..., n, n] distances between agents (per timestep and block);
    pair_ok: bool of that shape, True where both agents are present.
    Edges link such pairs closer than ``radius`` (self-loops included);
    absent agents get zero rows and columns.
    """
    a = ((dist < radius) & pair_ok).astype(np.float64)
    deg = a.sum(axis=-1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv[..., :, None] * a * inv[..., None, :]


def encoder_block(params, prefix, x, heads, mask, adj=None):
    """Pre-norm self-attention (+ optional GCN residual) + feed-forward;
    each sublayer runs its layer norm as a prologue."""
    x = masked_mha(params, f"{prefix}/attn", x, x, heads, mask=mask, norm=f"{prefix}/ln1")
    if adj is not None:
        x = graph_convolve(adj, x, params[f"{prefix}/gcn/w"], residual=x)
    return ffn_forward(params, f"{prefix}/ffn", x, residual=x, norm=f"{prefix}/ln2")


def _encoder_stack(params, cfg, prefix, tokens, presence, codes, mask, adj=None):
    """Embed, zero absent slots, add timestep codes, run the blocks, LN, zero.

    tokens: [..., 2] inputs; presence: bool over tokens' leading axes;
    codes: timestep codes broadcastable to the embedded tokens; adj:
    optional GCN adjacency for every block.  The embedding node zeroes
    absent slots and adds the codes as epilogues, and the ``ln_out`` node
    zeroes them as one, so the tape keeps no array between them.
    """
    dtype = params[f"{prefix}/embed/w"].dtype
    keep = presence[..., None].astype(dtype)
    x = ad.linear(Tensor(tokens, dtype=dtype), params[f"{prefix}/embed/w"], params[f"{prefix}/embed/b"],
                  keep=keep, shift=np.asarray(codes, dtype=dtype))
    for layer in range(cfg.layers):
        x = encoder_block(params, f"{prefix}/l{layer}", x, cfg.heads, mask, adj=adj)
    return layer_norm_p(params, f"{prefix}/ln_out", x, keep=keep)


def spatial_forward(params, cfg, x_obs, presence_obs, blocks, scene_positions):
    """Cross-agent attention per timestep; returns [N, T_i, d_model].

    x_obs: [N, T_i, 2] inputs the tokens embed (the model passes each
    agent's track relative to its own last observed position), absent
    slots zero; presence_obs: [N, T_i] bool.  blocks: the window's
    ``attention.SegmentBlocks``.  The tokens, scene_positions ([N, T_i, 2]
    in one shared frame) and presence are gathered into
    [T, S, n, ...] blocks, so agents of different segments neither attend
    to nor convolve with each other; the distances [T, S, n, n] feed the
    distance-bias mask and the GCN adjacency.  One index node scatters the
    output to agent rows.  A pad slot is absent: an absent key, a fully
    masked query, and zero after the embedding and ``ln_out``.  An open
    ``attention.capture`` gets each layer's weights as [T, h, N, N].

    Every token also gets the sinusoidal code of its timestep.  A relative
    track is exactly zero at the agent's last observed step, so without
    the code every agent's token there would be the embedding bias alone;
    that bias starts at zero, and layer norm of a near-constant vector
    scales each change to it by up to 1/sqrt(1e-5), about 316.
    """
    tokens = blocks.gather(np.asarray(x_obs, dtype=np.float64).transpose(1, 0, 2))  # [T, S, n, 2]
    dist = pairwise_distances(blocks.gather(np.asarray(scene_positions, dtype=np.float64).transpose(1, 0, 2)))
    present = blocks.gather(np.asarray(presence_obs, dtype=bool).T, -1) & ~blocks.pad  # [T, S, n]
    adj = gcn_adjacency(dist, present[..., :, None] & present[..., None, :], cfg.gcn_radius)
    absent = ~present[..., None, :] | blocks.pad[:, :, None]
    mask = distance_bias_mask(dist, absent, params["spatial/mask/w"], params["spatial/mask/b"])
    codes = positional_encoding(len(tokens), cfg.d_model)[:, None, None, :]  # same code for every agent
    x = _encoder_stack(params, cfg, "spatial", tokens, present, codes, mask, adj=adj)
    if attention._captured is not None:
        for layer in range(cfg.layers):
            key = f"spatial/l{layer}/attn"
            attention._captured[key] = blocks.dense(attention._captured[key].swapaxes(-4, -3))
    return blocks.scatter(x, 1)  # [N, T, d]


def temporal_forward(params, cfg, x_obs, presence_obs):
    """Per-agent attention across observed timesteps; returns [N, T_i, d_model]."""
    pres = np.asarray(presence_obs, dtype=bool)  # [N, T]
    steps = np.arange(pres.shape[1], dtype=np.float64)
    gaps = np.abs(steps[:, None] - steps[None, :])  # one |t - t'| matrix serves every agent
    mask = distance_bias_mask(gaps, ~pres[:, None, :], params["temporal/mask/w"], params["temporal/mask/b"])
    codes = positional_encoding(pres.shape[1], cfg.d_model)
    return _encoder_stack(params, cfg, "temporal", np.asarray(x_obs, dtype=np.float64), pres, codes, mask)
