import numpy as np
import pytest

from crowdcast import cvae
from crowdcast.attention import capture
from crowdcast.autodiff import backward, no_grad
from crowdcast.checkpoint import CheckpointError, read_records, save_archive
from crowdcast.config import TrainConfig
from crowdcast.data import normalize_window
from crowdcast.model import CrowdForecaster
from conftest import random_window, randomize_params, tiny_config


def test_single_agent_window_full_pipeline(tiny_cfg):
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=0), 1)
    window, _ = normalize_window(random_window(3, n=1))
    total, parts = model.training_loss(window, rng=np.random.default_rng(0))
    assert np.isfinite(float(total.data))
    samples = model.sample_futures(window, 4, np.random.default_rng(0))
    assert samples.shape == (4, 1, tiny_cfg.t_out, 2)
    assert np.all(np.isfinite(samples))


def test_presence_holes_supported(tiny_cfg):
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=1), 2)
    window, _ = normalize_window(random_window(5, n=4, holes=True))
    total, parts = model.training_loss(window, rng=np.random.default_rng(1))
    assert np.isfinite(float(total.data))
    for name, value in parts.items():
        assert np.isfinite(value), name


def _nonfinite_gradients(model, window):
    for t in model.params.values():
        t.zero_grad()
    total, _ = model.training_loss(window, rng=np.random.default_rng(0))
    backward(total)
    return [name for name, t in model.params.items()
            if t.grad is not None and not np.all(np.isfinite(t.grad))]


def test_default_init_gradients_finite_with_absent_observed_slot():
    """A zero-filled absent slot meets the zero-initialized reconstruction
    head at distance zero; the distance must back-propagate finitely."""
    model = CrowdForecaster(TrainConfig(), seed=0)
    window = random_window(21, n=3)
    window.presence[1, 4] = False
    window.positions[1, 4] = 0.0
    window, _ = normalize_window(window)
    assert _nonfinite_gradients(model, window) == []


def test_default_init_gradients_finite_when_future_returns_to_anchor():
    """At default init the decoder predicts each agent's last observed
    position; a future step exactly there gives a zero distance."""
    model = CrowdForecaster(TrainConfig(), seed=0)
    window = random_window(22, n=3)
    window.positions[2, window.t_in + 3] = window.positions[2, window.t_in - 1]
    window, _ = normalize_window(window)
    assert _nonfinite_gradients(model, window) == []


@pytest.mark.parametrize("holes", [False, True])
def test_sample_futures_translation_equivariant(tiny_cfg, holes):
    """Shifting every present position shifts every sampled future by the
    same vector: the model reads how agents move, not where they are."""
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=5), 6)
    window = random_window(23, n=4, holes=holes)
    shift = np.array([3.7, -2.1])
    moved = random_window(23, n=4, holes=holes)
    moved.positions[moved.presence] += shift
    base = model.sample_futures(window, 5, np.random.default_rng(11))
    shifted = model.sample_futures(moved, 5, np.random.default_rng(11))
    assert np.max(np.abs(shifted - (base + shift))) < 1e-9


def test_features_well_conditioned_in_spatial_bias_at_init():
    """Relative tracks are zero at each agent's last observed step, and the
    spatial embedding bias starts at zero.  The spatial tokens there must
    not be that bias alone: layer norm of a near-constant vector would turn
    a 1e-6 change of the bias into a change of order one."""
    model = CrowdForecaster(TrainConfig(), seed=0)
    window, _ = normalize_window(random_window(25, n=4))
    base = model.features(window)[0].data
    bias = model.params["spatial/embed/b"]
    step = np.random.default_rng(0).standard_normal(bias.shape)
    bias.data = bias.data + 1e-6 * step / np.linalg.norm(step)
    moved = model.features(window)[0].data
    assert np.max(np.abs(moved - base)) < 1e-4


def test_sampling_deterministic_given_seed(tiny_cfg):
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=2), 3)
    window, _ = normalize_window(random_window(6, n=3))
    a = model.sample_futures(window, 5, np.random.default_rng(42))
    b = model.sample_futures(window, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_sample_prefix_consistency(tiny_cfg):
    """The first of K samples matches the K=1 sample for the same stream."""
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=3), 4)
    window, _ = normalize_window(random_window(7, n=3))
    one = model.sample_futures(window, 1, np.random.default_rng(9))
    many = model.sample_futures(window, 6, np.random.default_rng(9))
    np.testing.assert_array_equal(many[0], one[0])


def test_checkpoint_config_mismatch_rejected(tiny_cfg, tmp_path):
    model = CrowdForecaster(tiny_cfg, seed=0)
    path = tmp_path / "m.ckpt"
    model.save(path)
    other = CrowdForecaster(tiny_config(d_model=16), seed=0)
    with pytest.raises(CheckpointError):
        other.load(path)
    fewer_layers = CrowdForecaster(tiny_config(layers=2), seed=0)
    with pytest.raises(CheckpointError):
        fewer_layers.load(path)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_load_writes_archive_values_into_parameter_arrays(tmp_path, precision):
    """``load`` copies each float32 record into the parameter's own array,
    which keeps its dtype; the widening to float64 is exact."""
    cfg = tiny_config(precision=precision)
    path = tmp_path / "m.ckpt"
    randomize_params(CrowdForecaster(cfg, seed=0), 5).save(path)
    model = CrowdForecaster(cfg, seed=1)
    arrays = {name: t.data for name, t in model.params.items()}
    model.load(path)
    stored = dict(read_records(path))
    for name, t in model.params.items():
        assert t.data is arrays[name] and t.dtype == cfg.dtype
        np.testing.assert_array_equal(t.data, stored[name])


@pytest.mark.parametrize("fault", ["shape", "truncated"])
def test_failed_load_changes_no_parameter(tiny_cfg, tmp_path, fault):
    """A load that fails on the last record, by the model's order or the
    archive's, leaves every parameter as it was."""
    model = CrowdForecaster(tiny_cfg, seed=0)
    arrays = {name: np.full(t.shape, 0.5) for name, t in model.params.items()}
    if fault == "shape":
        last = list(model.params)[-1]
        arrays[last] = np.full(model.params[last].size + 1, 0.5)
    path = tmp_path / "m.ckpt"
    save_archive(path, arrays)
    if fault == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    before = {name: t.data.copy() for name, t in model.params.items()}
    with pytest.raises(CheckpointError):
        model.load(path)
    for name, t in model.params.items():
        np.testing.assert_array_equal(t.data, before[name])


def test_attention_record_names(tiny_cfg):
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=4), 5)
    window, _ = normalize_window(random_window(8, n=3))
    with capture() as kept:
        model.sample_futures(window, 1, np.random.default_rng(0))
    assert set(kept) == {"spatial/l0/attn", "temporal/l0/attn", "fusion/cross_s/attn", "fusion/cross_t/attn",
                         "fusion/cross_h/attn", "fusion/self/attn", "hyper/edges"}
    # spatial maps: one [heads, N, N] block per timestep
    assert kept["spatial/l0/attn"].shape == (tiny_cfg.t_in, tiny_cfg.heads, 3, 3)
    assert kept["temporal/l0/attn"].shape == (3, tiny_cfg.heads, tiny_cfg.t_in, tiny_cfg.t_in)
    assert [entry["scale"] for entry in kept["hyper/edges"]] == [2]


def test_float32_mode_runs(tiny_cfg):
    cfg = tiny_config(precision="f32")
    model = CrowdForecaster(cfg, seed=0)
    assert all(t.dtype == np.float32 for t in model.params.values())
    window, _ = normalize_window(random_window(9, n=3))
    total, _ = model.training_loss(window, rng=np.random.default_rng(2))
    assert total.dtype == np.float32
    samples = model.sample_futures(window, 2, np.random.default_rng(0))
    assert np.all(np.isfinite(samples))


class TestBatchedSampling:
    """``sample_futures`` draws and decodes all K samples at once."""

    def setup_window(self, cfg, seed):
        model = randomize_params(CrowdForecaster(cfg, seed=0), seed)
        window, _ = normalize_window(random_window(seed, n=4, holes=True))
        return model, window

    def test_equals_sequential_single_decodes(self, tiny_cfg):
        """The loop this replaced, kept as the oracle: K prior draws of
        [N, d_z] from one stream, each decoded on its own."""
        model, window = self.setup_window(tiny_cfg, 3)
        k = 6
        samples = model.sample_futures(window, k, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        with no_grad():
            y_m, obs_emb, _, anchors = model.features(window)
            for i in range(k):
                z = cvae.sample_prior(rng, 1, window.n_agents, tiny_cfg.d_z, tiny_cfg.sigma_prior, tiny_cfg.dtype)
                pred = cvae.decode_trajectories(model.params, z, obs_emb, y_m, anchors, tiny_cfg.t_out)
                np.testing.assert_allclose(samples[i], pred.data[0], rtol=0, atol=1e-12)

    def test_prior_draw_is_the_sequential_stream(self):
        batched = cvae.sample_prior(np.random.default_rng(4), 4, 3, 5, 1.5, np.float64).data
        rng = np.random.default_rng(4)
        sequential = [cvae.sample_prior(rng, 1, 3, 5, 1.5, np.float64).data for _ in range(4)]
        np.testing.assert_array_equal(batched, np.concatenate(sequential))

    def test_sample_zero_independent_of_k(self):
        cfg = TrainConfig()
        model, window = self.setup_window(cfg, 4)
        s20 = model.sample_futures(window, 20, np.random.default_rng(8))
        s1 = model.sample_futures(window, 1, np.random.default_rng(8))
        assert s20.shape == (20, 4, cfg.t_out, 2)
        np.testing.assert_array_equal(s20[0], s1[0])
