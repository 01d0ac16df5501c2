"""Tape budget: how many autodiff nodes one ``training_loss`` records, by
kind, how many bytes its forward holds and how high its backward peaks.

Attention and affine layers are one node each, and the ReLU and residual
adds of a layer run in place on its output array.  The pre-norm sublayers
run their layer norm as a prologue, and each feed-forward sublayer is one
``ffn`` node.  A change that falls back to composing them from generic ops
(matmul, add, reshape, masked_softmax, a separate ReLU or layer norm)
breaks these counts.  The embedding of each encoder stack zeroes
absent slots and adds the timestep codes as epilogues, its ``ln_out``
zeroes them as one, and cross-attention takes its key/value sources as a
list.  Each fused node keeps only its inputs, its row stats and, for
attention, its softmax weights, per segment block in spatial attention;
a node that keeps more breaks the byte budgets.
"""

import ast
import inspect
import sys
import tracemalloc
from collections import Counter

import numpy as np

import crowdcast.autodiff as ad
from crowdcast import attention
from crowdcast.config import TrainConfig
from crowdcast.data import normalize_window, pack_windows, synth_generate, window_scene
from crowdcast.model import CrowdForecaster
from conftest import random_window

# Before attention and affine layers were fused, this loss recorded 389
# nodes: 90 matmul, 97 add, 40 reshape, 41 transpose and 8 masked_softmax
# among them.
UNFUSED_NODES = 389
# With ReLU and the residual adds as epilogues of the affine and attention
# nodes; 182 when each was a node of its own.
FUSED_NODES = 144
# With the sublayers' layer norms as prologues and one ``ffn`` node per
# feed-forward sublayer: 19 layer_norm nodes fewer, and 10 ffn nodes in
# place of 20 linear ones.  Three layer norms stay nodes of their own: the
# ``ln_out`` of the spatial, temporal and fusion stacks.
PRENORM_NODES = 115
# With the absent-slot zeroing and the timestep codes as epilogues of each
# encoder stack's embedding node and the zeroing after its ``ln_out`` as an
# epilogue of that layer norm (two mul and one add node fewer per stack),
# and the three cross-attentions fed their key/value sources as a list
# (6 concat nodes before, 3 now).
FOLDED_NODES = 106
# With the spatial and hypergraph branches run on segment blocks: the
# spatial output goes back to agent rows by one getitem node in place of
# a transpose node, and the hypergraph output by one more getitem node.
BLOCK_NODES = 107
# Traced memory after the forward of the seed-7 corpus's first 8 windows,
# packed (48 agents): 49.2 MiB with a ReLU and an add node per layer, 38.3
# MiB with them as epilogues, 33.4 MiB once layer norm keeps only its row
# means and inverse deviations, 22.6 MiB once the sublayers' norms are
# prologues and the ffn node rebuilds its hidden layer in the backward,
# 14.9 MiB once attention rebuilds its projections and context, 10.5 MiB
# once packed spatial attention keeps its weights per segment block, the
# encoder stacks' embedding and ``ln_out`` zero absent slots as epilogues
# and cross-attention joins its sources only as a temporary, 10.6 MiB once
# each of the spatial and hypergraph branches leaves its blocks by an index
# node that copies its output to agent rows (numpy 2, f64).  A sublayer that keeps its normalized input, its hidden layer, its
# q, k or v projections or its mixed context again, or spatial weights
# over all agent pairs of the batch, breaks this budget.
FORWARD_MIB = 12
# Traced peak while the backward of that batch runs: 36.3 MiB with the
# layer norms as nodes and the hidden layers on the tape, 25.2 MiB with
# the prologues and the rebuilt hidden layers, 18.0 MiB with the rebuilt
# attention projections and contexts, 13.6 MiB with the block spatial
# weights and the folded epilogues and concatenations.
BACKWARD_MIB = 15


def count_tape_nodes(monkeypatch):
    """Nodes recorded by one default-config ``training_loss`` on a
    four-agent window: (all nodes by kind, nodes made inside masked_mha
    by kind)."""
    kinds, in_attention = Counter(), Counter()
    make = ad._make

    def counting_make(data, op, parents, backward_fn, check=True):
        out = make(data, op, parents, backward_fn, check)
        if out._backward is not None:
            kinds[op] += 1
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not attention.masked_mha.__code__:
                frame = frame.f_back
            if frame is not None:
                in_attention[op] += 1
        return out

    monkeypatch.setattr(ad, "_make", counting_make)
    cfg = TrainConfig()
    model = CrowdForecaster(cfg, seed=0)
    window, _ = normalize_window(random_window(0, n=4))
    model.training_loss(window, latent_eps=np.random.default_rng(1).standard_normal((4, cfg.d_z)))
    return kinds, in_attention


def test_attention_is_one_node_per_call(monkeypatch):
    """Spatial x2, temporal x2, three cross-modal and the fusion
    self-attention: eight attentions, each exactly one node."""
    kinds, in_attention = count_tape_nodes(monkeypatch)
    assert kinds["masked_mha"] == 8
    assert in_attention == Counter(masked_mha=8)
    assert kinds["masked_softmax"] == 0


def test_total_at_most_half_of_unfused(monkeypatch):
    kinds, _ = count_tape_nodes(monkeypatch)
    assert sum(kinds.values()) <= UNFUSED_NODES // 2, kinds


def test_relu_and_residuals_are_epilogues(monkeypatch):
    kinds, _ = count_tape_nodes(monkeypatch)
    assert sum(kinds.values()) <= FUSED_NODES, kinds
    assert kinds["relu"] == 0


def test_layer_norms_are_sublayer_prologues(monkeypatch):
    kinds, _ = count_tape_nodes(monkeypatch)
    assert sum(kinds.values()) <= PRENORM_NODES, kinds
    assert kinds["layer_norm"] == 3
    assert kinds["ffn"] == 10


def test_stack_epilogues_and_list_fed_keys(monkeypatch):
    """The stacks' zeroing and codes fold into their embedding and
    ``ln_out`` nodes, and fusion makes one concat node, for its
    self-attention tokens, besides the CVAE head's two.  The spatial and
    hypergraph branches leave their segment blocks by one getitem node
    each, and no transpose is recorded."""
    kinds, _ = count_tape_nodes(monkeypatch)
    assert sum(kinds.values()) == BLOCK_NODES, kinds
    assert kinds["concat"] == 3
    assert kinds["transpose"] == 0


def traced_training_step():
    """Traced bytes after the forward of one packed training batch, and the
    traced peak while its backward runs."""
    scenes = synth_generate(7, 12, agents_range=(3, 6))
    windows = [w for scene in scenes for w in window_scene(scene)][:8]
    packed = pack_windows([normalize_window(w)[0] for w in windows])
    cfg = TrainConfig()
    model = CrowdForecaster(cfg, seed=0)
    eps = np.random.default_rng(0).standard_normal((packed.n_agents, cfg.d_z))
    tracemalloc.start()
    try:
        loss, _ = model.training_loss(packed, latent_eps=eps)
        assert loss.requires_grad
        traced, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return traced, peak


def test_forward_tape_bytes():
    """The tape of one packed training batch fits its byte budget."""
    traced, _ = traced_training_step()
    assert traced < FORWARD_MIB * 2**20, f"{traced / 2**20:.1f} MiB"


def test_backward_peak_bytes():
    """The backward of that batch stays within its byte budget."""
    _, peak = traced_training_step()
    assert peak < BACKWARD_MIB * 2**20, f"{peak / 2**20:.1f} MiB"


def test_every_engine_op_is_recorded(monkeypatch):
    """Each op kind that ``autodiff`` defines is made by some model path: a
    packed ``training_loss``, its backward, or ``sample_futures`` at K>1."""
    defined = {
        node.args[1].value
        for node in ast.walk(ast.parse(inspect.getsource(ad)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make"
    }
    made = set()
    make = ad._make

    def recording_make(data, op, *rest, **kwargs):
        made.add(op)
        return make(data, op, *rest, **kwargs)

    monkeypatch.setattr(ad, "_make", recording_make)
    cfg = TrainConfig()
    model = CrowdForecaster(cfg, seed=0)
    windows = [normalize_window(random_window(seed, n=n, holes=True))[0] for seed, n in ((0, 3), (1, 4))]
    packed = pack_windows(windows)
    loss, _ = model.training_loss(packed, rng=np.random.default_rng(1))
    ad.backward(loss)
    model.sample_futures(windows[0], 3, np.random.default_rng(2))
    assert defined - made == set()
