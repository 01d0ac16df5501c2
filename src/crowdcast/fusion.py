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
from .transformer import ffn_forward, layer_norm_p


def cross_modal_attention(params, prefix, target, sources, heads, record=None, record_key=None, absent=None):
    """Target tokens attend over the concatenated source tokens.

    target: [N, L_t, d]; sources: list of [N, L_s, d]; absent: optional
    [N, sum L_s] bool, True for source tokens no target may attend to.
    Residual + LN + FFN as in the encoder blocks; token count of the
    target is preserved.
    """
    d = target.shape[-1]
    for s in sources:
        if s.shape[0] != target.shape[0] or s.shape[-1] != d:
            raise ShapeError(f"modality shapes disagree: {target.shape} vs {s.shape}")
    kv = sources[0] if len(sources) == 1 else ad.concat(sources, axis=1)
    q_in = layer_norm_p(params, f"{prefix}/ln_q", target)
    kv_in = layer_norm_p(params, f"{prefix}/ln_kv", kv)
    mask = None if absent is None else AttentionMask(bias=None, absent=absent[:, None, :])
    attended = masked_mha(params, f"{prefix}/attn", q_in, kv_in, heads, mask=mask,
                          record=record, record_key=record_key)
    x = ad.add(target, attended)
    return ad.add(x, ffn_forward(params, f"{prefix}/ffn", layer_norm_p(params, f"{prefix}/ln2", x)))


def fuse(params, cfg, y_s, y_t, y_h, record=None, h_absent=None):
    """Align the three modal token sets into one vector per agent.

    y_s, y_t: [N, T_i, d_model]; y_h: [N, H_scales, d_model]; h_absent:
    optional [N, H_scales] bool, True for hypergraph tokens the agent
    lacks.  Returns [N, d_model], the mean over the agent's present tokens.
    """
    modalities = {"s": y_s, "t": y_t, "h": y_h}
    absent = {name: np.zeros(y.shape[:2], dtype=bool) for name, y in modalities.items()}
    if h_absent is not None:
        absent["h"] = np.asarray(h_absent, dtype=bool)
    aligned = []
    for name, target in modalities.items():
        others = [k for k in modalities if k != name]
        aligned.append(
            cross_modal_attention(params, f"fusion/cross_{name}", target, [modalities[k] for k in others],
                                  cfg.heads, record=record, record_key=f"attn/fusion/cross_{name}",
                                  absent=np.concatenate([absent[k] for k in others], axis=1))
        )
    tokens = ad.concat(aligned, axis=1)  # [N, 2*T_i + H, d]
    token_absent = np.concatenate(list(absent.values()), axis=1)
    self_mask = AttentionMask(bias=None, absent=token_absent[:, None, :])
    attn_in = layer_norm_p(params, "fusion/self/ln1", tokens)
    mixed = ad.add(tokens, masked_mha(params, "fusion/self/attn", attn_in, attn_in, cfg.heads, mask=self_mask,
                                      record=record, record_key="attn/fusion/self"))
    mixed = ad.add(mixed, ffn_forward(params, "fusion/self/ffn", layer_norm_p(params, "fusion/self/ln2", mixed)))
    mixed = layer_norm_p(params, "fusion/ln_out", mixed)
    present = ~token_absent
    pool = present / present.sum(axis=1, keepdims=True)  # [N, L]: 1/count at present tokens
    return ad.tsum(ad.mul(mixed, Tensor(pool[:, :, None], dtype=mixed.dtype)), axis=1)
