"""Cross-modal alignment of group-wise and pair-wise interaction features.

Fusion is per agent: each modality's tokens (timesteps for the two
transformer branches, KNN scales for the hypergraph branch) attend over
the other modalities' tokens, the three aligned sets concatenate into one
sequence, a self-attention block mixes it, and mean pooling yields the
crowd dynamics vector per agent.  No cross-agent mixing happens here, so
fusion is agent-permutation-equivariant by construction.  Hypergraph
tokens an agent lacks (padding of a packed window) are masked as keys
and left out of the pool.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .attention import AttentionMask, masked_mha
from .autodiff import ShapeError, Tensor
from .transformer import encoder_block, ffn_forward, layer_norm_p


def cross_modal_attention(params, prefix, target, sources, heads, absent):
    """Target tokens attend over the source tokens, joined along the token
    axis.

    target: [N, L_t, d]; sources: list of [N, L_s, d]; absent: [N, sum
    L_s] bool, True for source tokens no target may attend to.
    ``masked_mha`` takes the sources as a list and joins them only as a
    temporary, so the tape keeps no concatenation.  Residual + LN + FFN as
    in the encoder blocks; token count of the target is preserved.
    """
    d = target.shape[-1]
    for s in sources:
        if s.shape[0] != target.shape[0] or s.shape[-1] != d:
            raise ShapeError(f"modality shapes disagree: {target.shape} vs {s.shape}")
    mask = AttentionMask(bias=None, absent=absent[:, None, :])
    x = masked_mha(params, f"{prefix}/attn", target, sources, heads, mask=mask,
                   norm=(f"{prefix}/ln_q", f"{prefix}/ln_kv"))
    return ffn_forward(params, f"{prefix}/ffn", x, residual=x, norm=f"{prefix}/ln2")


def fuse(params, cfg, y_s, y_t, y_h, h_absent):
    """Align the three modal token sets into one vector per agent.

    y_s, y_t: [N, T_i, d_model]; y_h: [N, H_scales, d_model]; h_absent:
    [N, H_scales] bool, True for hypergraph tokens the agent lacks.
    Returns [N, d_model], the mean over the agent's present tokens.
    """
    modalities = {"s": y_s, "t": y_t, "h": y_h}
    absent = {"s": np.zeros(y_s.shape[:2], dtype=bool), "t": np.zeros(y_t.shape[:2], dtype=bool),
              "h": np.asarray(h_absent, dtype=bool)}
    aligned = []
    for name, target in modalities.items():
        others = [k for k in modalities if k != name]
        aligned.append(
            cross_modal_attention(params, f"fusion/cross_{name}", target, [modalities[k] for k in others],
                                  cfg.heads, absent=np.concatenate([absent[k] for k in others], axis=1))
        )
    tokens = ad.concat(aligned, axis=1)  # [N, 2*T_i + H, d]
    token_absent = np.concatenate(list(absent.values()), axis=1)
    self_mask = AttentionMask(bias=None, absent=token_absent[:, None, :])
    mixed = encoder_block(params, "fusion/self", tokens, cfg.heads, self_mask)
    mixed = layer_norm_p(params, "fusion/ln_out", mixed)
    present = ~token_absent
    pool = present / present.sum(axis=1, keepdims=True)  # [N, L]: 1/count at present tokens
    return ad.tsum(ad.mul(mixed, Tensor(pool[:, :, None], dtype=mixed.dtype)), axis=1)
