"""A packed batch (``pack_windows``) computes what its windows compute alone."""

from dataclasses import replace

import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast import hypergraph, transformer
from crowdcast.attention import SegmentBlocks, capture
from crowdcast.config import TrainConfig
from crowdcast.data import normalize_window, pack_windows, synth_generate, window_scene
from crowdcast.hypergraph import effective_scales, multiscale_group_features
from crowdcast.model import CrowdForecaster
from crowdcast.train import train
from conftest import randomize_params, random_window, tiny_config, validate

SCALES = (2, 3, 4)


def no_future_agent_window(seed):
    """Three agents; the last has observed steps but no future step."""
    window = random_window(seed, n=3)
    window.presence[2, window.t_in:] = False
    window.positions[2, window.t_in:] = 0.0
    return window


def mixed_windows():
    """1, 2, 3 (one scale token), 4 (two) agents, 6 with holes, and a
    window with an agent without future steps."""
    raw = [random_window(40, n=1), random_window(41, n=2), random_window(42, n=3),
           random_window(43, n=4), random_window(44, n=6, holes=True), no_future_agent_window(45)]
    return [normalize_window(w)[0] for w in raw]


def loss_and_grads(model, window, eps):
    for t in model.params.values():
        t.zero_grad()
    total, parts = model.training_loss(window, latent_eps=eps)
    ad.backward(total)
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for name, t in model.params.items()}
    return float(total.data), parts, grads


class TestPackWindows:
    def test_plain_window_is_one_segment(self):
        window = random_window(0, n=4)
        np.testing.assert_array_equal(window.segment, 0)
        validate(window)

    def test_concatenates_agents_and_numbers_segments(self):
        windows = mixed_windows()
        packed = pack_windows(windows)
        validate(packed)
        counts = [w.n_agents for w in windows]
        assert packed.n_agents == sum(counts)
        np.testing.assert_array_equal(packed.segment, np.repeat(np.arange(6), counts))
        np.testing.assert_array_equal(packed.positions, np.concatenate([w.positions for w in windows]))
        np.testing.assert_array_equal(packed.presence, np.concatenate([w.presence for w in windows]))

    def test_normalize_keeps_segment(self):
        packed = pack_windows([random_window(0, n=2), random_window(1, n=3)])
        shifted, _ = normalize_window(packed)
        np.testing.assert_array_equal(shifted.segment, [0, 0, 1, 1, 1])
        validate(shifted)

    def test_packing_a_packed_window_keeps_its_segments(self):
        a, b, c = mixed_windows()[2:5]
        nested = pack_windows([pack_windows([a, b]), c])
        flat = pack_windows([a, b, c])
        validate(nested)
        np.testing.assert_array_equal(nested.segment, np.repeat(np.arange(3), [3, 4, 6]))
        for field in ("positions", "presence", "segment"):
            np.testing.assert_array_equal(getattr(nested, field), getattr(flat, field))
        assert nested.agent_ids == flat.agent_ids

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ValueError):
            pack_windows([random_window(0, n=2), random_window(1, n=2, t_in=6)])

    def test_scale_tokens_padded_with_absent_mask(self):
        windows = mixed_windows()
        counts = [w.n_agents for w in windows]
        assert [len(effective_scales(SCALES, n)) for n in counts] == [0, 1, 1, 2, 3, 1]
        params = CrowdForecaster(tiny_config(scales=SCALES), seed=0).params

        def group_features(window):
            x_obs, pres = window.observed()
            return multiscale_group_features(x_obs, pres, params, "hyper", SCALES, SegmentBlocks(window.segment))

        tokens, absent = group_features(pack_windows(windows))
        rows = np.cumsum([0] + counts[:-1])  # first agent of each segment
        # the single agent keeps one present (zero) token
        np.testing.assert_array_equal(absent[rows], [[False, True, True], [False, True, True],
                                                     [False, True, True], [False, False, True],
                                                     [False, False, False], [False, True, True]])
        np.testing.assert_array_equal(absent, absent[rows][np.repeat(np.arange(6), counts)])
        assert not tokens.data[absent].any()
        assert not group_features(windows[3])[1].any()


class TestPackedEqualsPerWindow:
    """Loss and every parameter gradient of a packed batch equal the mean
    over its windows of the per-window values, in 64-bit."""

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [4, 0, 5, 3], [1, 2], [0, 2, 4]])
    def test_loss_and_gradients(self, order):
        cfg = tiny_config(scales=SCALES)
        model = randomize_params(CrowdForecaster(cfg, seed=2), seed=3)
        windows = [mixed_windows()[i] for i in order]
        rng = np.random.default_rng(5)
        eps = [rng.standard_normal((w.n_agents, cfg.d_z)) for w in windows]

        singles = [loss_and_grads(model, w, e) for w, e in zip(windows, eps)]
        packed = pack_windows(windows)
        loss, parts, grads = loss_and_grads(model, packed, np.concatenate(eps))

        expected = np.mean([s[0] for s in singles])
        assert abs(loss - expected) <= 1e-10 * abs(expected)
        for key in parts:
            assert parts[key] == pytest.approx(np.mean([s[1][key] for s in singles]), rel=1e-10, abs=1e-14)
        refs = {name: np.mean([s[2][name] for s in singles], axis=0) for name in grads}
        # a gradient that is 0 in exact arithmetic (the temporal mask bias
        # shifts every logit of a row alike) is measured against the largest
        floor = 1e-6 * max(float(np.max(np.abs(r))) for r in refs.values())
        for name in sorted(grads):
            scale = max(float(np.max(np.abs(refs[name]))), floor)
            assert np.max(np.abs(grads[name] - refs[name])) <= 1e-10 * scale, name

        # the same batch with its agents taken round robin from the segments
        rank = np.arange(packed.n_agents) - np.searchsorted(packed.segment, packed.segment)
        perm = np.lexsort((packed.segment, rank))
        interleaved = replace(packed, positions=packed.positions[perm], presence=packed.presence[perm],
                              agent_ids=[packed.agent_ids[i] for i in perm], segment=packed.segment[perm])
        assert (np.diff(interleaved.segment) < 0).any()
        loss_i, parts_i, grads_i = loss_and_grads(model, interleaved, np.concatenate(eps)[perm])
        assert abs(loss_i - loss) <= 1e-10 * abs(loss)
        for key in parts:
            assert parts_i[key] == pytest.approx(parts[key], rel=1e-10, abs=1e-14)
        for name in sorted(grads):
            scale = max(float(np.max(np.abs(refs[name]))), floor)
            assert np.max(np.abs(grads_i[name] - grads[name])) <= 1e-10 * scale, name


def test_packed_capture_gives_dense_spatial_maps():
    """Packed spatial attention runs per segment block (1, 3 and 6 agents,
    the last with absent steps), and ``capture`` still keeps dense [T, h,
    N, N] maps: each window's block is what that window captures alone,
    and the pairs between windows are zero."""
    cfg = tiny_config(scales=SCALES)
    model = randomize_params(CrowdForecaster(cfg, seed=2), seed=3)
    windows = [mixed_windows()[i] for i in (0, 2, 4)]

    def spatial_maps(window):
        with capture() as kept:
            model.sample_futures(window, 1, np.random.default_rng(0))
        return [kept[f"spatial/l{layer}/attn"] for layer in range(cfg.layers)]

    packed = spatial_maps(pack_windows(windows))
    singles = [spatial_maps(w) for w in windows]
    starts = np.cumsum([0] + [w.n_agents for w in windows])
    for layer, dense in enumerate(packed):
        assert dense.shape == (windows[0].t_in, cfg.heads, starts[-1], starts[-1])
        expected = np.zeros_like(dense)
        for lo, hi, single in zip(starts[:-1], starts[1:], singles):
            expected[:, :, lo:hi, lo:hi] = single[layer]
        np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-12)


def test_graph_operators_stay_within_blocks(monkeypatch):
    """On a packed window with uneven segments (1 to 6 agents, holes),
    every operator the spatial GCN and the hypergraph convolve with is
    laid out over segment blocks, [..., S, n, n], never over all agent
    pairs."""
    seen = {}
    for module in (transformer, hypergraph):
        def spy(op, x, theta, residual=None, name=module.__name__, real=module.graph_convolve):
            seen.setdefault(name, []).append(op.shape)
            return real(op, x, theta, residual)

        monkeypatch.setattr(module, "graph_convolve", spy)
    cfg = tiny_config(scales=SCALES)
    packed = pack_windows(mixed_windows())
    blocks = SegmentBlocks(packed.segment)
    assert len(set(blocks.counts)) > 1
    model = CrowdForecaster(cfg, seed=0)
    total, _ = model.training_loss(packed, rng=np.random.default_rng(0))
    ad.backward(total)
    block = (blocks.count, blocks.size, blocks.size)
    assert seen["crowdcast.transformer"] == [(packed.t_in,) + block] * cfg.layers
    assert seen["crowdcast.hypergraph"] == [block] * 2 * len(SCALES)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_packed_grads_own_their_memory(precision):
    """Ops hand their freshly made gradients over without a copy; after a
    packed loss and backward, no parameter's grad shares memory with
    another's grad or with any parameter's data."""
    model = randomize_params(CrowdForecaster(TrainConfig(precision=precision), seed=0), seed=1)
    for t in model.params.values():
        t.data = t.data.astype(model.cfg.dtype)  # randomize_params writes f64
    windows = mixed_windows()
    packed = pack_windows(windows)
    total, _ = model.training_loss(packed, rng=np.random.default_rng(2))
    ad.backward(total)
    params = [model.params[name] for name in sorted(model.params)]
    grads = [p.grad for p in params if p.grad is not None]
    assert len(grads) == len(params)
    for i, g in enumerate(grads):
        assert g.dtype == model.cfg.dtype
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(g, p.data) for p in params)


def train_small_corpus():
    """The seed-7 64-window corpus the acceptance run trains on."""
    scenes = synth_generate(7, 12, agents_range=(3, 6))
    return [w for s in scenes[:11] for w in window_scene(s)][:64]


class TestPackedTraining:
    def test_one_backward_per_batch_step(self, monkeypatch, tmp_path):
        calls = []
        real = ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss: calls.append(1) or real(loss))
        windows = [w for s in synth_generate(5, 2, agents_range=(3, 4)) for w in window_scene(s, stride=2)]
        cfg = tiny_config(epochs=2, batch_size=3)
        train(cfg, windows, out_dir=str(tmp_path))
        assert len(calls) == cfg.epochs * -(-len(windows) // cfg.batch_size)

    def test_rng_draw_order_kept(self, tmp_path):
        """Jitter, rotation and latent draws keep their per-window order:
        epoch 0 of the default config on the seed-7 corpus reads the loss
        it read when every window had its own tape."""
        _, report = train(TrainConfig(epochs=1, seed=7), train_small_corpus(), out_dir=str(tmp_path))
        assert report["epochs"][0]["total"] == pytest.approx(4.169186593588481, rel=1e-10)
