"""A packed batch (``pack_windows``) computes what its windows compute alone."""

import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.config import TrainConfig
from crowdcast.data import normalize_window, pack_windows, synth_generate, window_scene
from crowdcast.hypergraph import effective_scales, scale_token_absent
from crowdcast.model import CrowdForecaster
from crowdcast.train import train
from conftest import randomize_params, random_window, tiny_config

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
        window.validate()

    def test_concatenates_agents_and_numbers_segments(self):
        windows = mixed_windows()
        packed = pack_windows(windows)
        packed.validate()
        counts = [w.n_agents for w in windows]
        assert packed.n_agents == sum(counts)
        np.testing.assert_array_equal(packed.segment, np.repeat(np.arange(6), counts))
        np.testing.assert_array_equal(packed.positions, np.concatenate([w.positions for w in windows]))
        np.testing.assert_array_equal(packed.presence, np.concatenate([w.presence for w in windows]))

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ValueError):
            pack_windows([random_window(0, n=2), random_window(1, n=2, t_in=6)])

    def test_scale_tokens_padded_with_absent_mask(self):
        counts = [w.n_agents for w in mixed_windows()]
        assert [len(effective_scales(SCALES, n)) for n in counts] == [0, 1, 1, 2, 3, 1]
        absent = scale_token_absent(np.repeat(np.arange(6), counts), SCALES)
        rows = np.cumsum([0] + counts[:-1])  # first agent of each segment
        # the single agent keeps one present (zero) token
        np.testing.assert_array_equal(absent[rows], [[False, True, True], [False, True, True],
                                                     [False, True, True], [False, False, True],
                                                     [False, False, False], [False, True, True]])
        assert not scale_token_absent(np.zeros(4, dtype=int), SCALES).any()


class TestPackedEqualsPerWindow:
    """Loss and every parameter gradient of a packed batch equal the mean
    over its windows of the per-window values, in 64-bit."""

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [4, 0, 5, 3], [1, 2]])
    def test_loss_and_gradients(self, order):
        cfg = tiny_config(scales=SCALES)
        model = randomize_params(CrowdForecaster(cfg, seed=2), seed=3)
        windows = [mixed_windows()[i] for i in order]
        rng = np.random.default_rng(5)
        eps = [rng.standard_normal((w.n_agents, cfg.d_z)) for w in windows]

        singles = [loss_and_grads(model, w, e) for w, e in zip(windows, eps)]
        loss, parts, grads = loss_and_grads(model, pack_windows(windows), np.concatenate(eps))

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


def train_small_corpus():
    """The seed-7 64-window corpus the acceptance run trains on."""
    scenes = synth_generate(7, 12, agents_range=(3, 6))
    return [w for s in scenes[:11] for w in window_scene(s)][:64]


class TestPackedTraining:
    def test_one_backward_per_batch_step(self, monkeypatch):
        calls = []
        real = ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss: calls.append(1) or real(loss))
        windows = [w for s in synth_generate(5, 2, agents_range=(3, 4)) for w in window_scene(s, stride=2)]
        cfg = tiny_config(epochs=2, batch_size=3)
        train(cfg, windows)
        assert len(calls) == cfg.epochs * -(-len(windows) // cfg.batch_size)

    def test_rng_draw_order_kept(self):
        """Jitter, rotation and latent draws keep their per-window order:
        epoch 0 of the default config on the seed-7 corpus reads the loss
        it read when every window had its own tape."""
        _, report = train(TrainConfig(epochs=1, seed=7), train_small_corpus())
        assert report["epochs"][0]["total"] == pytest.approx(4.169186593588481, rel=1e-10)
