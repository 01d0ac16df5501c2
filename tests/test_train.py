import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import crowdcast
from crowdcast.cli import main as cli_main
from crowdcast.config import ConfigError, TrainConfig, format_config, parse_config
from crowdcast.data import normalize_window, synth_generate, window_scene
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
)
from crowdcast.autodiff import Tensor
from conftest import random_window, tiny_config


def adam_oracle(theta0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar-loop Adam reference."""
    theta = list(theta0)
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    for t, g in enumerate(grads, start=1):
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

    def test_skips_missing_grads(self):
        params = {"w": Tensor(np.ones(3), requires_grad=True)}
        opt = Adam(params, lr=0.1)
        opt.step()  # no grad set
        np.testing.assert_array_equal(params["w"].data, 1.0)

    def test_lr_schedule(self):
        assert decayed_lr(1e-4, 0) == 1e-4
        assert decayed_lr(1e-4, 99) == 1e-4
        assert decayed_lr(1e-4, 100) == pytest.approx(5e-5)
        assert decayed_lr(1e-4, 250) == pytest.approx(1e-4 * 0.25)


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-4
        assert cfg.decay_factor == 0.5 and cfg.decay_every == 100
        assert cfg.t_in == 8 and cfg.t_out == 12
        assert cfg.scales == (2, 3, 4)
        assert cfg.noise_std == 0.01

    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(learning_rate=3e-4, scales=(2, 5), fde_joint=True, epochs=7)
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

    def test_loss_decreases_on_tiny_run(self):
        cfg = tiny_config(epochs=15, batch_size=4, noise_std=0.0, learning_rate=3e-3)
        windows = small_corpus()
        _, report = train(cfg, windows)
        first = report["epochs"][0]["total"]
        last = report["epochs"][-1]["total"]
        assert last < first

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
        from crowdcast.checkpoint import load_archive

        dumped = load_archive(ins / "attention.ckpt")
        assert any(k.startswith("attn/spatial/0/") for k in dumped)
        assert any(k.startswith("attn/temporal/0/") for k in dumped)
        assert any(k.startswith("attn/fusion/") for k in dumped)
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
        from crowdcast.checkpoint import load_archive

        dumped = load_archive(ins / "attention.ckpt")
        assert dumped["attn/temporal/0/0"].shape[-1] == 6

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


def test_train_submodule_not_shadowed():
    import crowdcast.train as module

    assert module is sys.modules["crowdcast.train"]
