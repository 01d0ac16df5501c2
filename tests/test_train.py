import csv
import json
import os
import re
import struct
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import crowdcast
from crowdcast.cli import main as cli_main
from crowdcast.config import ConfigError, TrainConfig, format_config, parse_config
from crowdcast.cvae import MetricError
from crowdcast.data import Scene, normalize_window, synth_generate, window_scene, write_scene
from crowdcast.model import CrowdForecaster
from crowdcast.optim import Adam, decayed_lr
from crowdcast.train import (
    ConstantVelocityModel,
    TrainingAbort,
    baseline_constant_velocity,
    evaluate,
    gaussian_jitter,
    random_rotation,
    train,
    write_summary_csv,
)
from crowdcast.autodiff import Tensor
from conftest import random_window, tiny_config


def adam_oracle(theta0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar-loop Adam reference."""
    theta = list(theta0)
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    for t, g in enumerate(grads, start=1):
        if g is None:  # no grad this step: moments and parameters stay
            continue
        for i in range(len(theta)):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            theta[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        theta0 = rng.normal(size=10)
        grads = [rng.normal(size=10) for _ in range(25)]
        params = {"w": Tensor(theta0.copy(), requires_grad=True)}
        opt = Adam(params, lr=0.01)
        for g in grads:
            params["w"].grad = g.copy()
            opt.step()
        expected = adam_oracle(theta0, grads, lr=0.01)
        assert np.max(np.abs(params["w"].data - np.array(expected))) < 1e-12

    def test_several_shapes_and_missing_grads(self):
        """Each parameter follows the scalar reference with the shared step
        count, including one that has no grad for some steps."""
        rng = np.random.default_rng(1)
        shapes = {"a": (3,), "b": (2, 4), "c": (2, 2, 3)}
        theta0 = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        grads = {name: [rng.normal(size=shape) for _ in range(12)] for name, shape in shapes.items()}
        grads["b"][3:7] = [None] * 4
        params = {name: Tensor(theta.copy(), requires_grad=True) for name, theta in theta0.items()}
        opt = Adam(params, lr=0.01)
        for step in range(12):
            for name, t in params.items():
                g = grads[name][step]
                t.grad = None if g is None else g.copy()
            opt.step()
        for name, t in params.items():
            flat = [None if g is None else g.reshape(-1) for g in grads[name]]
            expected = np.reshape(adam_oracle(theta0[name].reshape(-1), flat, lr=0.01), shapes[name])
            assert np.max(np.abs(t.data - expected)) < 1e-12, name

    def test_skips_missing_grads(self):
        params = {"w": Tensor(np.ones(3), requires_grad=True)}
        opt = Adam(params, lr=0.1)
        opt.step()  # no grad set
        np.testing.assert_array_equal(params["w"].data, 1.0)

    def test_lr_schedule(self):
        assert decayed_lr(1e-4, 0, 0.5, 100) == 1e-4
        assert decayed_lr(1e-4, 99, 0.5, 100) == 1e-4
        assert decayed_lr(1e-4, 100, 0.5, 100) == pytest.approx(5e-5)
        assert decayed_lr(1e-4, 250, 0.5, 100) == pytest.approx(1e-4 * 0.25)


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-4
        assert cfg.decay_factor == 0.5 and cfg.decay_every == 100
        assert cfg.t_in == 8 and cfg.t_out == 12
        assert cfg.scales == (2, 3, 4)
        assert cfg.noise_std == 0.01

    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(learning_rate=3e-4, scales=(2, 5), precision="f32", epochs=7)
        path = tmp_path / "run.cfg"
        path.write_text(format_config(cfg))
        back = parse_config(path)
        assert back == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate=1e-3\nwarp_speed=9\n")
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config(path)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs=lots\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# a comment\n\nepochs=4  # trailing\nscales=2,3\n")
        cfg = parse_config(path)
        assert cfg.epochs == 4 and cfg.scales == (2, 3)

    def test_every_field_is_read(self):
        """Each field is read as ``.<field>`` by a module other than config.py."""
        modules = sorted(Path(crowdcast.__file__).parent.glob("*.py"))
        text = "".join(p.read_text() for p in modules if p.name != "config.py")
        needles = {f.name: rf"\.{f.name}\b" for f in fields(TrainConfig)}
        needles["precision"] = r"\bcfg\.dtype\b"  # read through the dtype property
        assert [name for name, pattern in needles.items() if not re.search(pattern, text)] == []

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            TrainConfig(d_model=10, heads=4)
        with pytest.raises(ConfigError):
            TrainConfig(d_model=7)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    @pytest.mark.parametrize("scales", [(0, -3), (2, 0), (-1,)])
    def test_scales_below_one_rejected(self, scales):
        """A scale below 1 would leave its hypergraph token out silently."""
        with pytest.raises(ConfigError, match="scales"):
            TrainConfig(scales=scales)

    @pytest.mark.parametrize("scales, repeated", [((2, 2, 3), [2]), ((3, 2, 3, 2), [2, 3])])
    def test_repeated_scale_rejected(self, scales, repeated):
        """Each scale has its own convolution parameters, and a repeated
        scale's copy would never be trained."""
        with pytest.raises(ConfigError, match=re.escape(f"repeated: {repeated}")):
            TrainConfig(scales=scales)

    @pytest.mark.parametrize("line, reason", [
        ("learning_rate=nan", "learning_rate must be finite"),
        ("decay_factor=nan", "decay_factor must be finite"),
        ("sigma_prior=inf", "sigma_prior must be finite"),
        ("kappa2=inf", "kappa2 must be finite"),
        ("noise_std=-inf", "noise_std must be finite"),
        ("kappa1=-1", "kappa1 must be non-negative"),
        ("kappa4=-0.1", "kappa4 must be non-negative"),
        ("noise_std=-0.5", "noise_std must be non-negative"),
        ("gcn_radius=-1", "must be positive"),
        ("gcn_radius=0", "must be positive"),
        ("gcn_radius=nan", "gcn_radius must be finite"),
    ])
    def test_out_of_range_float_rejected(self, tmp_path, line, reason):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=reason):
            parse_config(path)

    def test_zero_weights_and_noise_accepted(self, tmp_path):
        """The ablations switch a loss term off with a zero weight."""
        path = tmp_path / "ok.cfg"
        path.write_text("kappa1=0\nkappa2=0\nkappa3=0\nkappa4=0\nnoise_std=0\n")
        cfg = parse_config(path)
        assert (cfg.kappa1, cfg.kappa3, cfg.noise_std) == (0.0, 0.0, 0.0)


class TestJitter:
    def test_futures_untouched_and_presence_respected(self):
        window = random_window(0, n=3, holes=True)
        noisy = gaussian_jitter(window, np.random.default_rng(0), std=0.05)
        np.testing.assert_array_equal(noisy.positions[:, window.t_in:], window.positions[:, window.t_in:])
        assert np.any(noisy.positions[:, : window.t_in] != window.positions[:, : window.t_in])
        assert np.all(noisy.positions[~noisy.presence] == 0.0)

    def test_zero_std_identity(self):
        window = random_window(1, n=2)
        same = gaussian_jitter(window, np.random.default_rng(0), std=0.0)
        np.testing.assert_array_equal(same.positions, window.positions)


class TestRotation:
    def _pairwise(self, pos, pres):
        """Distances between present agents at each step, NaN elsewhere."""
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)  # [N, N, T]
        both = pres[:, None] & pres[None, :]
        return np.where(both, d, np.nan)

    def _steps(self, pos, pres):
        d = np.linalg.norm(np.diff(pos, axis=1), axis=-1)
        return np.where(pres[:, 1:] & pres[:, :-1], d, np.nan)

    def test_rigid_rotation_of_whole_window(self):
        window, _ = normalize_window(random_window(2, n=4, holes=True))
        turned = random_rotation(window, np.random.default_rng(3))
        np.testing.assert_array_equal(turned.presence, window.presence)
        assert np.all(turned.positions[~turned.presence] == 0.0)
        p, q, pres = window.positions, turned.positions, window.presence
        np.testing.assert_allclose(self._pairwise(q, pres), self._pairwise(p, pres), rtol=0, atol=1e-12)
        np.testing.assert_allclose(self._steps(q, pres), self._steps(p, pres), rtol=0, atol=1e-12)
        # one rotation about the origin for observations and future alike:
        # every present point turns by the same angle and keeps its radius
        angles = np.arctan2(q[..., 1], q[..., 0]) - np.arctan2(p[..., 1], p[..., 0])
        turn = np.exp(1j * angles[pres])
        assert np.max(np.abs(turn - turn[0])) < 1e-12
        assert abs(turn[0] - 1.0) > 1e-3
        np.testing.assert_allclose(np.linalg.norm(q, axis=-1), np.linalg.norm(p, axis=-1), rtol=0, atol=1e-12)

    def test_angle_drawn_from_rng(self):
        window = random_window(4, n=2)
        a = random_rotation(window, np.random.default_rng(5))
        b = random_rotation(window, np.random.default_rng(5))
        c = random_rotation(window, np.random.default_rng(6))
        np.testing.assert_array_equal(a.positions, b.positions)
        assert np.any(a.positions != c.positions)


def small_corpus(seed=5, scenes=2):
    out = []
    for scene in synth_generate(seed=seed, n_scenes=scenes, agents_range=(3, 4)):
        out.extend(window_scene(scene, stride=4))
    return out


class TestTrain:
    def test_deterministic_checkpoints_and_metrics(self, tmp_path):
        cfg = tiny_config(epochs=3, batch_size=4)
        windows = small_corpus()
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            train(cfg, windows, out_dir=str(out))
            outs.append(out)
        ck_a = (outs[0] / "final.ckpt").read_bytes()
        ck_b = (outs[1] / "final.ckpt").read_bytes()
        assert ck_a == ck_b
        model = CrowdForecaster(cfg, seed=cfg.seed).load(outs[0] / "final.ckpt")
        rows_a, agg_a = evaluate(model, windows[:3], k=4, seed=11)
        rows_b, agg_b = evaluate(model, windows[:3], k=4, seed=11)
        assert rows_a == rows_b and agg_a == agg_b

    def test_loss_decreases_on_tiny_run(self, tmp_path):
        cfg = tiny_config(epochs=15, batch_size=4, noise_std=0.0, learning_rate=3e-3)
        windows = small_corpus()
        _, report = train(cfg, windows, out_dir=str(tmp_path))
        first = report["epochs"][0]["total"]
        last = report["epochs"][-1]["total"]
        assert last < first

    def test_returned_model_holds_no_gradients(self, tmp_path):
        """Gradients are dropped after each Adam step, so none outlives it."""
        model, _ = train(tiny_config(epochs=2, batch_size=4), small_corpus(), out_dir=str(tmp_path))
        assert [name for name, t in model.params.items() if t.grad is not None] == []

    def test_report_structure(self, tmp_path):
        cfg = tiny_config(epochs=2, batch_size=4)
        _, report = train(cfg, small_corpus(), out_dir=str(tmp_path))
        assert len(report["epochs"]) == 2
        for entry in report["epochs"]:
            for key in ("epoch", "lr", "total", "distance", "kl", "angle", "reconstruction"):
                assert key in entry
                assert np.isfinite(entry[key]) or key == "epoch"
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["config"]["epochs"] == 2

    def test_abort_names_first_nonfinite_gradient(self, tmp_path, monkeypatch):
        """A NaN gradient aborts before the optimizer step, naming the
        first such parameter in sorted order."""
        import crowdcast.autodiff as autodiff

        cfg = tiny_config(epochs=2, batch_size=4)
        models = []
        real_loss, real_backward = CrowdForecaster.training_loss, autodiff.backward

        def loss_keeping_model(self, window, latent_eps=None, rng=None):
            models.append(self)
            return real_loss(self, window, latent_eps=latent_eps, rng=rng)

        def poisoned_backward(loss):
            real_backward(loss)
            for name in ("temporal/embed/w", "hyper/mlp/b2"):
                models[-1].params[name].grad[0] = np.nan

        steps = []
        monkeypatch.setattr(CrowdForecaster, "training_loss", loss_keeping_model)
        monkeypatch.setattr(autodiff, "backward", poisoned_backward)
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
        with pytest.raises(TrainingAbort, match="'hyper/mlp/b2'") as info:
            train(cfg, small_corpus(), out_dir=str(tmp_path))
        assert "temporal/embed/w" not in str(info.value)
        assert steps == []

    def test_abort_on_nonfinite(self, tmp_path, monkeypatch):
        cfg = tiny_config(epochs=3, batch_size=2)
        windows = small_corpus()

        real_loss = CrowdForecaster.training_loss
        calls = {"n": 0}

        def poisoned(self, window, latent_eps=None, rng=None):
            calls["n"] += 1
            if calls["n"] > 3:
                raise ArithmeticError("loss component 'distance' is non-finite")
            return real_loss(self, window, latent_eps=latent_eps, rng=rng)

        monkeypatch.setattr(CrowdForecaster, "training_loss", poisoned)
        with pytest.raises(TrainingAbort, match="distance"):
            train(cfg, windows, out_dir=str(tmp_path))

    def test_checkpoint_round_trip_bit_exact_metrics(self, tmp_path):
        cfg = tiny_config(epochs=2, batch_size=4)
        windows = small_corpus()
        model, _ = train(cfg, windows, out_dir=str(tmp_path))
        loaded = CrowdForecaster(cfg, seed=cfg.seed).load(tmp_path / "final.ckpt")
        rows_1, _ = evaluate(loaded, windows[:4], k=3, seed=2)
        loaded.save(tmp_path / "second.ckpt")
        again = CrowdForecaster(cfg, seed=99).load(tmp_path / "second.ckpt")
        rows_2, _ = evaluate(again, windows[:4], k=3, seed=2)
        assert rows_1 == rows_2


class GroundTruthEcho:
    """Oracle stub: returns the window's future for every sample."""

    def __init__(self, windows):
        self._by_shape = windows

    def sample_futures(self, window, k, rng):
        fut, _ = window.future()
        return np.repeat(fut[None], k, axis=0)


class TestEvaluate:
    def test_ground_truth_echo_scores_zero(self):
        windows = small_corpus()
        rows, (ade, fde) = evaluate(GroundTruthEcho(windows), windows, k=5, seed=0)
        assert ade == 0.0 and fde == 0.0
        for row in rows:
            assert row["minADE5"] == 0.0 and row["minFDE5"] == 0.0

    def test_k1_is_single_sample_metric(self):
        cfg = tiny_config()
        windows = small_corpus()
        model = CrowdForecaster(cfg, seed=0)
        rows1, _ = evaluate(model, windows[:2], k=1, seed=3)
        rows20, _ = evaluate(model, windows[:2], k=20, seed=3)
        for r1, r20 in zip(rows1, rows20):
            assert r20["minADE20"] <= r1["minADE1"] + 1e-15
            assert r20["minFDE20"] <= r1["minFDE1"] + 1e-15

    def test_no_window_raises(self):
        """A fold mean over no window used to come back as (nan, nan)."""
        with pytest.raises(MetricError, match="at least one window"):
            evaluate(ConstantVelocityModel(), [], k=3, seed=0)


class TestBaseline:
    def test_unit_velocity_continues(self):
        window = random_window(0, n=1, t_in=8, t_out=4)
        pos = np.zeros((1, 12, 2))
        pos[0, :, 0] = np.arange(12.0)  # (1,0) per step
        window.positions = pos
        window.presence = np.ones((1, 12), dtype=bool)
        pred = baseline_constant_velocity(window)
        np.testing.assert_allclose(pred[0, :, 0], np.arange(8.0, 12.0), atol=1e-12)
        np.testing.assert_allclose(pred[0, :, 1], 0.0, atol=1e-12)

    def test_static_agent(self):
        window = random_window(1, n=1, t_in=8, t_out=4)
        window.positions = np.tile(np.array([2.0, -1.0]), (1, 12, 1))
        window.presence = np.ones((1, 12), dtype=bool)
        pred = baseline_constant_velocity(window)
        np.testing.assert_allclose(pred, np.tile([2.0, -1.0], (1, 4, 1)), atol=1e-12)

    def test_single_point_agent_stays_put(self):
        window = random_window(2, n=1, t_in=8, t_out=4)
        window.presence[:] = False
        window.presence[0, 3] = True
        window.presence[0, 4] = False
        window.presence[0, :2] = True  # 3 observed points total
        window.presence[0, window.t_in:] = True
        pres = window.presence.copy()
        pres[0, :window.t_in] = False
        pres[0, 5] = True  # only one observed point
        window.presence = pres
        window.positions = window.positions * window.presence[:, :, None]
        pred = baseline_constant_velocity(window)
        np.testing.assert_allclose(pred[0], np.tile(window.positions[0, 5], (4, 1)), atol=1e-12)

    def test_matches_per_agent_loop(self):
        """Agents with gaps, one observed at a single step, one observed at
        its last step only after a gap: each against a scalar reference."""
        window = random_window(3, n=6, t_in=8, t_out=5, holes=True)
        window.presence[:, : window.t_in] = np.random.default_rng(4).random((6, 8)) < 0.5
        window.presence[0, : window.t_in] = False
        window.presence[0, 2] = True  # a single observed step
        window.presence[1, : window.t_in] = [True, False, False, False, False, False, True, False]
        window.positions = window.positions * window.presence[:, :, None]
        obs, pres = window.observed()
        pred = baseline_constant_velocity(window)
        for i in range(6):
            idx = np.nonzero(pres[i])[0]
            vel = (obs[i, idx[-1]] - obs[i, idx[-2]]) / (idx[-1] - idx[-2]) if idx.size >= 2 else np.zeros(2)
            for t in range(window.t_out):
                expected = obs[i, idx[-1]] + (t + window.t_in - idx[-1]) * vel
                np.testing.assert_allclose(pred[i, t], expected, rtol=1e-13, atol=1e-13)

    def test_exact_on_constant_velocity_scenes(self):
        scenes = synth_generate(seed=21, n_scenes=3, kinds=("cv",))
        model = ConstantVelocityModel()
        windows = [w for s in scenes for w in window_scene(s, stride=5)]
        _, (ade, fde) = evaluate(model, windows, k=1, seed=0)
        assert ade < 1e-6 and fde < 1e-6


class TestCli:
    def test_synth_train_eval_inspect(self, tmp_path):
        data = tmp_path / "data"
        cli_main(["synth", "--seed", "3", "--out", str(data), "--scenes", "2",
                  "--min-agents", "3", "--max-agents", "4"])
        assert len(list(data.glob("*.txt"))) == 2

        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_config(tiny_config(epochs=2, batch_size=4, stride=6)))

        run = tmp_path / "run"
        cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                  "--out", str(run), "--log-every", "100"])
        assert (run / "final.ckpt").exists()
        assert (run / "report.json").exists()

        ev = tmp_path / "eval"
        cli_main(["eval", "--checkpoint", str(run / "final.ckpt"), "--config", str(cfg_path),
                  "--data", str(data), "--k", "4", "--seed", "1", "--out", str(ev)])
        lines = (ev / "metrics.jsonl").read_text().strip().splitlines()
        assert lines
        row = json.loads(lines[0])
        assert {"fold", "window", "minADE4", "minFDE4"} <= set(row)
        header = (ev / "summary.csv").read_text().splitlines()[0]
        assert header == "fold,minADE4,minFDE4"

        ins = tmp_path / "inspect"
        cli_main(["inspect", "--checkpoint", str(run / "final.ckpt"), "--config", str(cfg_path),
                  "--data", str(data), "--out", str(ins),
                  "--dump-attention", "--dump-hypergraphs"])
        assert (ins / "attention.ckpt").exists()
        assert (ins / "hypergraphs.jsonl").exists()
        from crowdcast.checkpoint import read_records

        dumped = dict(read_records(ins / "attention.ckpt"))
        assert "spatial/l0/attn/0" in dumped and "temporal/l0/attn/0" in dumped
        assert {"fusion/cross_s/attn", "fusion/cross_t/attn", "fusion/cross_h/attn", "fusion/self/attn"} <= set(dumped)
        entries = [json.loads(l) for l in (ins / "hypergraphs.jsonl").read_text().splitlines()]
        assert all({"scale", "edges"} <= set(e) for e in entries)

    def test_inspect_synthetic_windows_follow_config_horizons(self, tmp_path):
        """Without --data, inspect cuts its synthetic windows with the
        config's t_in and t_out, so a t_in=6 model runs."""
        cfg = tiny_config(t_in=6)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_config(cfg))
        ckpt = tmp_path / "model.ckpt"
        CrowdForecaster(cfg, seed=cfg.seed).save(ckpt)
        ins = tmp_path / "inspect"
        cli_main(["inspect", "--checkpoint", str(ckpt), "--config", str(cfg_path),
                  "--out", str(ins), "--dump-attention"])
        from crowdcast.checkpoint import read_records

        dumped = dict(read_records(ins / "attention.ckpt"))
        assert dumped["temporal/l0/attn/0"].shape[-1] == 6

    def test_holdout_excluded(self, tmp_path, capsys):
        data = tmp_path / "data"
        cli_main(["synth", "--seed", "4", "--out", str(data), "--scenes", "2",
                  "--min-agents", "3", "--max-agents", "3"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_config(tiny_config(epochs=1, batch_size=4, stride=6)))
        run = tmp_path / "run"
        cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                  "--out", str(run), "--holdout", "synth000"])
        out = capsys.readouterr().out
        assert "from 1 scenes" in out


class TestCliRejectsBadInput:
    @pytest.fixture
    def run(self, tmp_path):
        """A two-scene data directory, a tiny config and its checkpoint."""
        data = tmp_path / "data"
        cli_main(["synth", "--seed", "5", "--out", str(data), "--scenes", "2",
                  "--min-agents", "3", "--max-agents", "3"])
        cfg = tiny_config(epochs=1, batch_size=4, stride=6)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_config(cfg))
        ckpt = tmp_path / "model.ckpt"
        CrowdForecaster(cfg, seed=cfg.seed).save(ckpt)
        return tmp_path, data, cfg_path, ckpt

    @pytest.mark.parametrize("window", ["999", "-1"])
    def test_inspect_window_out_of_range(self, run, window):
        tmp_path, data, cfg_path, ckpt = run
        with pytest.raises(SystemExit, match="out of range"):
            cli_main(["inspect", "--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data),
                      "--window", window, "--out", str(tmp_path / "inspect")])

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_eval_k_must_be_positive(self, run, k, capsys):
        tmp_path, data, cfg_path, ckpt = run
        with pytest.raises(SystemExit):
            cli_main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data),
                      "--k", k, "--out", str(tmp_path / "eval")])
        assert "must be a positive integer" in capsys.readouterr().err

    def test_train_log_every_must_be_positive(self, run, capsys):
        tmp_path, data, cfg_path, _ = run
        with pytest.raises(SystemExit):
            cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                      "--out", str(tmp_path / "train"), "--log-every", "0"])
        assert "must be a positive integer" in capsys.readouterr().err

    @staticmethod
    def _one_agent_scene(path, n_frames):
        write_scene(Scene(frames=[(f, 0, 0.1 * f, 0.0) for f in range(n_frames)]), path)

    def test_eval_leaves_out_a_fold_without_a_window(self, run, capsys):
        """A scene shorter than t_in + t_out frames used to give a fold of
        NaN metrics in summary.csv."""
        tmp_path, data, cfg_path, ckpt = run
        self._one_agent_scene(data / "short.txt", 10)
        cli_main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data),
                  "--k", "2", "--out", str(tmp_path / "eval")])
        out = capsys.readouterr().out
        assert "fold short: left out, no window of 20 frames to score" in out
        assert "nan" not in out
        summary = (tmp_path / "eval" / "summary.csv").read_text()
        assert [line.split(",")[0] for line in summary.splitlines()] == ["fold", "synth000", "synth001"]
        assert "nan" not in summary

    def test_eval_without_any_window_is_one_line_error(self, run):
        tmp_path, data, cfg_path, ckpt = run
        for path in data.glob("*.txt"):
            path.unlink()
        self._one_agent_scene(data / "short.txt", 10)
        with pytest.raises(SystemExit, match="^no scene under .* has a window of 20 frames to score$"):
            cli_main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data),
                      "--out", str(tmp_path / "eval")])
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("holdout", [None, "synth000"])
    def test_train_without_any_window_is_one_line_error(self, run, holdout):
        """With no window of t_in + t_out frames to train on, train used to
        write config.txt and then fail with a traceback."""
        tmp_path, data, cfg_path, _ = run
        (data / "synth001.txt").unlink()
        if holdout is None:
            (data / "synth000.txt").unlink()
        self._one_agent_scene(data / "short.txt", 10)
        besides = "" if holdout is None else " besides --holdout 'synth000'"
        holdout_args = [] if holdout is None else ["--holdout", holdout]
        with pytest.raises(SystemExit) as exc:
            cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                      "--out", str(tmp_path / "train")] + holdout_args)
        assert exc.value.code == f"no scene under {data}{besides} has a window of 20 frames to train on"
        assert not (tmp_path / "train").exists()

    def test_inspect_single_agent_window_writes_no_hypergraph(self, run):
        tmp_path, data, cfg_path, ckpt = run
        for path in data.glob("*.txt"):
            path.unlink()
        self._one_agent_scene(data / "alone.txt", 20)
        ins = tmp_path / "inspect"
        cli_main(["inspect", "--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data),
                  "--out", str(ins), "--dump-attention", "--dump-hypergraphs"])
        assert (ins / "hypergraphs.jsonl").read_text() == ""
        assert (ins / "attention.ckpt").exists()

    @pytest.mark.parametrize("command", ["eval", "inspect", "synth"])
    def test_negative_seed_is_one_line_error(self, run, command, capsys):
        """A negative --seed used to end in numpy's traceback from
        ``default_rng`` (eval, inspect) or in a bare "expected non-negative
        integer" (synth)."""
        tmp_path, data, cfg_path, ckpt = run
        loaded = {"eval": ["--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data)],
                  "inspect": ["--checkpoint", str(ckpt), "--config", str(cfg_path)],
                  "synth": []}[command]
        out = tmp_path / command
        with pytest.raises(SystemExit):
            cli_main([command, *loaded, "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert "--seed: must be a non-negative integer, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scenes", ["0", "-3"])
    def test_synth_scenes_must_be_positive(self, tmp_path, scenes, capsys):
        with pytest.raises(SystemExit):
            cli_main(["synth", "--seed", "0", "--out", str(tmp_path / "data"), "--scenes", scenes])
        assert "must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("flags, reason", [(["--frames", "1"], "n_frames"),
                                               (["--min-agents", "1"], "agents_range")])
    def test_synth_rejects_what_it_cannot_generate(self, tmp_path, flags, reason):
        with pytest.raises(SystemExit, match=reason):
            cli_main(["synth", "--seed", "0", "--out", str(tmp_path / "data"), "--scenes", "1"] + flags)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_malformed_scene_file_is_one_line_error(self, run, command):
        tmp_path, data, cfg_path, ckpt = run
        (data / "synth001.txt").write_text("0 1 0.0 0.0\n1 1 oops 0.0\n")
        args = {"train": ["--out", str(tmp_path / "train")],
                "eval": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")],
                "inspect": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "inspect")]}[command]
        with pytest.raises(SystemExit, match=r"synth001\.txt:2: non-numeric field$"):
            cli_main([command, "--config", str(cfg_path), "--data", str(data)] + args)
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_coordinate_beyond_bound_is_one_line_error(self, run, command):
        """A scene with x near 1e200 used to parse and cut windows; then
        train ended in a TrainingAbort traceback and eval in a
        NonFiniteError one."""
        tmp_path, data, cfg_path, ckpt = run
        write_scene(Scene(frames=[(f, a, 1e200 if a == 1 else 0.1 * f, float(a)) for f in range(20)
                                  for a in range(3)]), data / "synth001.txt")
        args = {"train": ["--out", str(tmp_path / "train")],
                "eval": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")],
                "inspect": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "inspect")]}[command]
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(cfg_path), "--data", str(data)] + args)
        assert exc.value.code == "scene synth001: window at frame 0: coordinate 1e+200 is beyond the 1e+06 m bound"
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_non_utf8_scene_file_is_one_line_error(self, run, command):
        tmp_path, data, cfg_path, ckpt = run
        (data / "synth001.txt").write_bytes(b"0 1 0.0 0.0\n1 1 \xff 0.0\n")
        args = {"train": ["--out", str(tmp_path / "train")],
                "eval": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")],
                "inspect": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "inspect")]}[command]
        with pytest.raises(SystemExit, match=r"synth001\.txt: not UTF-8 text$"):
            cli_main([command, "--config", str(cfg_path), "--data", str(data)] + args)
        assert not (tmp_path / command).exists()

    @staticmethod
    def _load_checkpoint(command, run, ckpt):
        tmp_path, data, cfg_path, _ = run
        cli_main([command, "--checkpoint", str(ckpt), "--config", str(cfg_path), "--data", str(data),
                  "--out", str(tmp_path / command)])

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_missing_checkpoint_is_one_line_error(self, run, command):
        ckpt = run[0] / "nosuch.ckpt"
        with pytest.raises(SystemExit, match=f"^{re.escape(str(ckpt))}: cannot read checkpoint: No such file"):
            self._load_checkpoint(command, run, ckpt)
        assert not (run[0] / command).exists()

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_unreadable_checkpoint_is_one_line_error(self, run, command):
        ckpt = run[0] / "data"  # a directory
        with pytest.raises(SystemExit, match=f"^{re.escape(str(ckpt))}: cannot read checkpoint: Is a directory$"):
            self._load_checkpoint(command, run, ckpt)

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("blob, reason", [(b"HSTTN1xx", "truncated archive"),
                                              (b"HSTTN1\x01\x00\x00\x00\x01\x00\x00\x00\xff",
                                               "record name is not UTF-8"),
                                              (b"HSTTN1\x00\x00\x00\x00", "parameter names disagree"),
                                              # dims whose product is 2**64, which wraps to 0 in int64
                                              (b"HSTTN1\x01\x00\x00\x00\x01\x00\x00\x00w\x04\x00\x00\x00"
                                               + b"\x00\x00\x01\x00" * 4, "truncated data for record 'w'")])
    def test_malformed_checkpoint_is_one_line_error(self, run, command, blob, reason):
        ckpt = run[0] / "bad.ckpt"
        ckpt.write_bytes(blob)
        with pytest.raises(SystemExit, match=f"^{re.escape(str(ckpt))}: {reason}"):
            self._load_checkpoint(command, run, ckpt)

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_non_finite_checkpoint_is_one_line_error(self, run, command):
        """A layer-norm gain of 1e39 is inf as float32; such a checkpoint
        used to load and end in a NonFiniteError traceback."""
        name = b"fusion/ln_out/g"
        blob = bytearray(run[3].read_bytes())
        at = blob.index(name) + len(name) + 8  # past ndim and the one dim
        blob[at:at + 4] = struct.pack("<f", np.inf)
        ckpt = run[0] / "inf.ckpt"
        ckpt.write_bytes(bytes(blob))
        reason = "non-finite values in record 'fusion/ln_out/g'"
        with pytest.raises(SystemExit, match=f"^{re.escape(str(ckpt))}: {reason}$"):
            self._load_checkpoint(command, run, ckpt)
        assert not (run[0] / command).exists()

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    @pytest.mark.parametrize("text, reason", [(None, "cannot read config: No such file or directory"),
                                              (b"bogus=1\n", "1: unknown config key 'bogus'"),
                                              (b"epochs=2\nd_model=63\n", "d_model must be even"),
                                              (b"# a comment\nepochs=lots\n",
                                               "2: config key 'epochs': cannot parse 'lots'"),
                                              (b"epochs=\xff\n", "not UTF-8 text"),
                                              (b"epochs=1\nscales=2,3,2\n", "scales must differ; repeated: [2]")],
                             ids=["missing", "unknown-key", "invalid-value", "unparsable-value", "not-utf8",
                                  "repeated-scale"])
    def test_bad_config_is_one_line_error(self, run, command, text, reason):
        """A missing config file used to end in a FileNotFoundError
        traceback, and an unknown key or invalid value in a ConfigError
        one."""
        tmp_path, data, _, ckpt = run
        cfg_path = tmp_path / "bad.cfg"
        if text is not None:
            cfg_path.write_bytes(text)
        args = {"train": ["--out", str(tmp_path / "train")],
                "eval": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")],
                "inspect": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "inspect")]}[command]
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(cfg_path), "--data", str(data)] + args)
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith(f"{cfg_path}:") and reason in exc.value.code, exc.value.code
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("overrides, best", [({"learning_rate": 1e30}, True), ({"noise_std": 1e300}, False)],
                             ids=["learning-rate", "noise"])
    def test_diverging_training_is_one_line_error(self, tmp_path, overrides, best):
        """Training that goes non-finite used to end in a TrainingAbort
        traceback, and an abort before any best epoch named a best.ckpt
        that was never written.  One step per epoch: a huge learning rate
        aborts in the second epoch, after epoch 0 wrote best.ckpt, and huge
        noise aborts in the first step.  Numpy's own RuntimeWarnings on the
        way there stay silent, so the abort line is all that is printed."""
        data = tmp_path / "data"
        cli_main(["synth", "--seed", "7", "--out", str(data), "--scenes", "2"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_config(tiny_config(epochs=3, batch_size=64, stride=6, **overrides)))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli_main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("training aborted: ") and "non-finite" in message, message
        if best:
            assert message.endswith(f"; last good checkpoint retained at {out}/best.ckpt"), message
            assert sorted(p.name for p in out.iterdir()) == ["best.ckpt", "config.txt"]
        else:
            assert "checkpoint" not in message, message
            assert sorted(p.name for p in out.iterdir()) == ["config.txt"]

    @staticmethod
    def _with_data(command, run, data):
        tmp_path, _, cfg_path, ckpt = run
        loaded = [] if command == "train" else ["--checkpoint", str(ckpt)]
        cli_main([command, *loaded, "--config", str(cfg_path), "--data", str(data),
                  "--out", str(tmp_path / command)])

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_missing_data_directory_is_one_line_error(self, run, command):
        data = run[0] / "nosuch"
        with pytest.raises(SystemExit) as exc:
            self._with_data(command, run, data)
        assert exc.value.code == f"{data}: cannot read data directory: No such file or directory"
        assert not (run[0] / command).exists()

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_data_naming_a_file_is_one_line_error(self, run, command):
        data = run[1] / "synth000.txt"
        with pytest.raises(SystemExit) as exc:
            self._with_data(command, run, data)
        assert exc.value.code == f"{data}: cannot read data directory: Not a directory"
        assert not (run[0] / command).exists()

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_directory_named_like_a_scene_is_one_line_error(self, run, command):
        scene = run[1] / "x.txt"
        scene.mkdir()
        with pytest.raises(SystemExit) as exc:
            self._with_data(command, run, run[1])
        assert exc.value.code == f"{scene}: cannot read scene: Is a directory"
        assert not (run[0] / command).exists()

    def test_train_out_naming_a_file_is_one_line_error(self, run):
        tmp_path, data, cfg_path, _ = run
        out = tmp_path / "taken"
        out.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli_main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out)])
        assert exc.value.code == f"{out}: cannot create output directory: File exists"
        assert out.read_text() == ""

    def test_holdout_must_name_a_scene(self, run):
        tmp_path, data, cfg_path, _ = run
        with pytest.raises(SystemExit, match="'nosuch' is not a scene"):
            cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                      "--out", str(tmp_path / "train"), "--holdout", "nosuch"])
        assert not (tmp_path / "train").exists()


def test_summary_csv_round_trips_fold_names(tmp_path):
    """A fold name with a comma or a quote used to be written bare, so
    ``csv.reader`` split its row into more fields."""
    rows = [("a,b", 2.5, 4.25), ('say "hi"', 0.1, 0.2), ("plain", 1.0 / 3.0, 2.0)]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows, 20)
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))
    assert read[0] == ["fold", "minADE20", "minFDE20"]
    assert read[1:] == [[fold, repr(ade), repr(fde)] for fold, ade, fde in rows]
    assert [(fold, float(ade), float(fde)) for fold, ade, fde in read[1:]] == rows


def test_train_submodule_not_shadowed():
    import crowdcast.train as module

    assert module is sys.modules["crowdcast.train"]
