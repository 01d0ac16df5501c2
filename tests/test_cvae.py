import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.autodiff import Tensor, gradcheck
from crowdcast.cvae import (
    LatentPosterior,
    MetricError,
    best_of_k,
    decode_trajectories,
    encode_posterior,
    loss_total,
    observed_embedding,
    reparameterize,
    sample_prior,
)
from crowdcast.model import CrowdForecaster
from conftest import random_window, randomize_params, tiny_config


def ade_fde_oracle(pred, gt, presence):
    """Independent scalar-loop reference."""
    total, count, finals = 0.0, 0, []
    for i in range(pred.shape[0]):
        last = None
        for t in range(pred.shape[1]):
            if presence[i, t]:
                e = np.hypot(pred[i, t, 0] - gt[i, t, 0], pred[i, t, 1] - gt[i, t, 1])
                total += e
                count += 1
                last = e
        if last is not None:
            finals.append(last)
    return total / count, sum(finals) / len(finals)


class TestPosterior:
    def test_zero_head_gives_standard_normal(self, tiny_cfg):
        model = CrowdForecaster(tiny_cfg, seed=0)  # posterior head zero-initialized
        rng = np.random.default_rng(0)
        x_obs = rng.normal(size=(3, 8, 2))
        pres = np.ones((3, 8), dtype=bool)
        x_fut = rng.normal(size=(3, 12, 2))
        y_m = Tensor(rng.normal(size=(3, tiny_cfg.d_model)))
        obs_emb = observed_embedding(model.params, x_obs, pres)
        post, recon = encode_posterior(model.params, obs_emb, x_fut, np.ones((3, 12), dtype=bool), y_m,
                                       tiny_cfg.d_z)
        np.testing.assert_array_equal(post.mu.data, 0.0)
        np.testing.assert_array_equal(post.log_sigma.data, 0.0)
        np.testing.assert_array_equal(recon.data, 0.0)

    def test_shapes(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=0), 1)
        rng = np.random.default_rng(1)
        obs_emb = observed_embedding(model.params, rng.normal(size=(5, 8, 2)), np.ones((5, 8), dtype=bool))
        post, recon = encode_posterior(model.params, obs_emb, rng.normal(size=(5, 12, 2)),
                                       np.ones((5, 12), dtype=bool),
                                       Tensor(rng.normal(size=(5, tiny_cfg.d_model))), tiny_cfg.d_z)
        assert post.mu.shape == (5, tiny_cfg.d_z)
        assert post.log_sigma.shape == (5, tiny_cfg.d_z)
        assert recon.shape == (5, 16)

    def test_gradient(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=2), 3)
        rng = np.random.default_rng(3)
        x_obs = rng.normal(size=(2, 8, 2))
        pres = np.ones((2, 8), dtype=bool)
        x_fut = rng.normal(size=(2, 12, 2))
        y_m = Tensor(rng.normal(size=(2, tiny_cfg.d_model)), requires_grad=True)
        probe_mu = rng.normal(size=(2, tiny_cfg.d_z))
        probe_r = rng.normal(size=(2, 16))
        leaves = [y_m] + [model.params[k] for k in sorted(model.params)
                          if k.startswith(("cvae/obs", "cvae/fut", "cvae/post", "cvae/recon"))]

        def f():
            obs_emb = observed_embedding(model.params, x_obs, pres)
            post, recon = encode_posterior(model.params, obs_emb, x_fut, np.ones((2, 12), dtype=bool), y_m,
                                           tiny_cfg.d_z)
            return ad.add(ad.tsum(ad.mul(post.mu, Tensor(probe_mu))),
                          ad.add(ad.tsum(ad.mul(post.log_sigma, Tensor(probe_mu))),
                                 ad.tsum(ad.mul(recon, Tensor(probe_r)))))

        assert gradcheck(f, leaves, max_entries=8, rng=np.random.default_rng(4)) < 1e-3

    def test_absent_future_slot_ignored(self, tiny_cfg):
        """The future embedding reads present slots only: garbage in an
        absent future slot leaves the posterior and the recon unchanged."""
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=0), 1)
        rng = np.random.default_rng(5)
        obs_emb = Tensor(rng.normal(size=(2, tiny_cfg.d_model)))
        y_m = Tensor(rng.normal(size=(2, tiny_cfg.d_model)))
        x_fut = rng.normal(size=(2, 12, 2))
        pres_fut = np.ones((2, 12), dtype=bool)
        pres_fut[1, 7:] = False
        x_fut[~pres_fut] = 0.0
        garbage = x_fut.copy()
        garbage[1, 7:] = 99.0
        clean = encode_posterior(model.params, obs_emb, x_fut, pres_fut, y_m, tiny_cfg.d_z)
        dirty = encode_posterior(model.params, obs_emb, garbage, pres_fut, y_m, tiny_cfg.d_z)
        for a, b in ((clean[0].mu, dirty[0].mu), (clean[0].log_sigma, dirty[0].log_sigma), (clean[1], dirty[1])):
            np.testing.assert_array_equal(a.data, b.data)


class TestSampling:
    def test_sigma_collapse(self):
        post = LatentPosterior(mu=Tensor(np.array([[1.5, -2.0]])),
                               log_sigma=Tensor(np.full((1, 2), -30.0)))
        z = reparameterize(post, np.random.default_rng(0).standard_normal((1, 2)))
        np.testing.assert_allclose(z.data, [[1.5, -2.0]], atol=1e-10)

    def test_fixed_seed_reproducible(self):
        post = LatentPosterior(mu=Tensor(np.zeros((4, 3))), log_sigma=Tensor(np.zeros((4, 3))))
        z1 = reparameterize(post, np.random.default_rng(9).standard_normal((4, 3)))
        z2 = reparameterize(post, np.random.default_rng(9).standard_normal((4, 3)))
        np.testing.assert_array_equal(z1.data, z2.data)
        t1 = sample_prior(np.random.default_rng(9), 2, 4, 3, 1.0, np.float64)
        t2 = sample_prior(np.random.default_rng(9), 2, 4, 3, 1.0, np.float64)
        np.testing.assert_array_equal(t1.data, t2.data)

    def test_test_mode_statistics(self):
        rng = np.random.default_rng(123)
        sigma_prior = 1.3
        z = sample_prior(rng, 1, 100_000, 2, sigma_prior, np.float64).data[0]
        assert np.all(np.abs(z.mean(axis=0)) < 0.02)
        np.testing.assert_allclose(z.var(axis=0), sigma_prior**2, rtol=0.03)

    def test_reparameterize_gradient(self):
        rng = np.random.default_rng(5)
        mu = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        ls = Tensor(rng.normal(size=(3, 2)) * 0.3, requires_grad=True)
        eps = rng.standard_normal((3, 2))
        probe = rng.normal(size=(3, 2))

        def f():
            return ad.tsum(ad.mul(reparameterize(LatentPosterior(mu, ls), eps), Tensor(probe)))

        assert gradcheck(f, [mu, ls]) < 1e-4


class TestDecoder:
    def test_zero_head_repeats_anchor(self, tiny_cfg):
        model = CrowdForecaster(tiny_cfg, seed=0)  # decoder head zero-initialized
        rng = np.random.default_rng(0)
        z = Tensor(rng.normal(size=(3, tiny_cfg.d_z)))
        obs_emb = Tensor(rng.normal(size=(3, tiny_cfg.d_model)))
        y_m = Tensor(rng.normal(size=(3, tiny_cfg.d_model)))
        anchors = rng.normal(size=(3, 2))
        pred = decode_trajectories(model.params, z, obs_emb, y_m, anchors, tiny_cfg.t_out)
        expected = np.repeat(anchors[:, None, :], tiny_cfg.t_out, axis=1)
        np.testing.assert_allclose(pred.data, expected, atol=1e-12)

    def test_output_shape_default_horizon(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=1), 2)
        rng = np.random.default_rng(1)
        pred = decode_trajectories(model.params, Tensor(rng.normal(size=(4, tiny_cfg.d_z))),
                                   Tensor(rng.normal(size=(4, tiny_cfg.d_model))),
                                   Tensor(rng.normal(size=(4, tiny_cfg.d_model))),
                                   rng.normal(size=(4, 2)), tiny_cfg.t_out)
        assert pred.shape == (4, 12, 2)

    def test_continuity_anchor_property(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=3), 4)
        rng = np.random.default_rng(2)
        z = Tensor(rng.normal(size=(2, tiny_cfg.d_z)))
        obs_emb = Tensor(rng.normal(size=(2, tiny_cfg.d_model)))
        y_m = Tensor(rng.normal(size=(2, tiny_cfg.d_model)))
        anchors = rng.normal(size=(2, 2))
        pred = decode_trajectories(model.params, z, obs_emb, y_m, anchors, tiny_cfg.t_out).data
        # first step offset equals the first increment: pred[0] - anchor
        inc0 = pred[:, 0, :] - anchors
        np.testing.assert_allclose(np.linalg.norm(pred[:, 0] - anchors, axis=-1),
                                   np.linalg.norm(inc0, axis=-1), atol=1e-12)
        # increments accumulate: pred[t] - pred[t-1] is finite and consistent
        assert np.all(np.isfinite(np.diff(pred, axis=1)))

    def test_gradient(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=5), 6)
        rng = np.random.default_rng(3)
        z = Tensor(rng.normal(size=(2, tiny_cfg.d_z)), requires_grad=True)
        obs_emb = Tensor(rng.normal(size=(2, tiny_cfg.d_model)), requires_grad=True)
        y_m = Tensor(rng.normal(size=(2, tiny_cfg.d_model)), requires_grad=True)
        anchors = rng.normal(size=(2, 2))
        probe = rng.normal(size=(2, tiny_cfg.t_out, 2))
        leaves = [z, obs_emb, y_m] + [model.params[k] for k in sorted(model.params) if k.startswith("cvae/dec")]

        def f():
            pred = decode_trajectories(model.params, z, obs_emb, y_m, anchors, tiny_cfg.t_out)
            return ad.tsum(ad.mul(pred, Tensor(probe)))

        assert gradcheck(f, leaves, max_entries=10, rng=np.random.default_rng(7)) < 1e-3


def unit_posterior(n, d_z, mu=None, log_sigma=None):
    return LatentPosterior(
        mu=Tensor(np.zeros((n, d_z)) if mu is None else mu),
        log_sigma=Tensor(np.zeros((n, d_z)) if log_sigma is None else log_sigma),
    )


class TestLossTotal:
    def test_perfect_prediction_zero_loss(self):
        rng = np.random.default_rng(0)
        n, t_in, t_out = 2, 8, 12
        gt = rng.normal(size=(n, t_out, 2))
        x_obs = rng.normal(size=(n, t_in, 2))
        pres_f = np.ones((n, t_out), dtype=bool)
        pres_o = np.ones((n, t_in), dtype=bool)
        total, parts = loss_total(Tensor(gt.copy()), gt, pres_f, unit_posterior(n, 4),
                                  Tensor(x_obs.reshape(n, -1).copy()), x_obs, pres_o,
                                  (1.0, 1.0, 1.0, 1.0), sigma_prior=1.0, segment=np.zeros(n, dtype=int))
        assert float(total.data) == pytest.approx(0.0, abs=1e-12)
        for name in ("distance", "kl", "angle", "reconstruction"):
            assert parts[name] == pytest.approx(0.0, abs=1e-12)

    def test_kl_closed_form(self):
        n, d_z = 1, 4
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(n, 2, 2))
        x_obs = rng.normal(size=(n, 2, 2))
        args = (gt, np.ones((n, 2), dtype=bool))
        obs_args = (x_obs, np.ones((n, 2), dtype=bool))
        mu = np.zeros((n, d_z))
        mu[0, 0] = 1.0
        _, parts = loss_total(Tensor(gt.copy()), *args, unit_posterior(n, d_z, mu=mu),
                              Tensor(x_obs.reshape(n, -1).copy()), *obs_args,
                              (0.0, 1.0, 0.0, 0.0), sigma_prior=1.0, segment=np.zeros(n, dtype=int))
        assert parts["kl"] == pytest.approx(0.5, abs=1e-12)
        _, parts0 = loss_total(Tensor(gt.copy()), *args, unit_posterior(n, d_z),
                               Tensor(x_obs.reshape(n, -1).copy()), *obs_args,
                               (0.0, 1.0, 0.0, 0.0), sigma_prior=1.0, segment=np.zeros(n, dtype=int))
        assert parts0["kl"] == pytest.approx(0.0, abs=1e-12)

    def test_angle_quarter_turn(self):
        n, t_out = 1, 2
        gt = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        pred = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        x_obs = np.array([[[0.5, 0.5], [0.6, 0.6]]])
        kappa3 = 0.1
        _, parts = loss_total(Tensor(pred), gt, np.ones((n, t_out), dtype=bool),
                              unit_posterior(n, 3), Tensor(x_obs.reshape(n, -1).copy()),
                              x_obs, np.ones((n, 2), dtype=bool),
                              (0.0, 0.0, kappa3, 0.0), sigma_prior=1.0, segment=np.zeros(n, dtype=int))
        assert parts["angle"] == pytest.approx(kappa3 * np.pi / 2, abs=1e-12)

    def test_degenerate_gt_pairs_skipped(self):
        n, t_out = 1, 3
        gt = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])  # first point at origin
        pred = gt + 0.1
        x_obs = np.ones((n, 2, 2))
        _, parts = loss_total(Tensor(pred), gt, np.ones((n, t_out), dtype=bool),
                              unit_posterior(n, 2), Tensor(x_obs.reshape(n, -1).copy()),
                              x_obs, np.ones((n, 2), dtype=bool),
                              (0.0, 0.0, 1.0, 0.0), sigma_prior=1.0, segment=np.zeros(n, dtype=int))
        assert np.isfinite(parts["angle"])

    def test_distance_is_masked_mean(self):
        n, t_out = 2, 3
        gt = np.zeros((n, t_out, 2))
        pred = np.zeros((n, t_out, 2))
        pred[0, 0] = [3.0, 4.0]  # error 5 at one present slot
        presence = np.zeros((n, t_out), dtype=bool)
        presence[0, 0] = True
        presence[1, 1] = True  # error 0 there
        x_obs = np.ones((n, 2, 2))
        _, parts = loss_total(Tensor(pred), gt, presence, unit_posterior(n, 2),
                              Tensor(x_obs.reshape(n, -1).copy()), x_obs,
                              np.ones((n, 2), dtype=bool), (1.0, 0.0, 0.0, 0.0), sigma_prior=1.0,
                              segment=np.zeros(n, dtype=int))
        assert parts["distance"] == pytest.approx(2.5)

    def test_full_gradient(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=8), 9)
        rng = np.random.default_rng(4)
        window = random_window(10, n=3)
        from crowdcast.data import normalize_window

        win, _ = normalize_window(window)
        eps = rng.standard_normal((3, tiny_cfg.d_z))
        names = sorted(k for k in model.params if k.startswith("cvae/"))
        leaves = [model.params[k] for k in names]

        def f():
            total, _ = model.training_loss(win, latent_eps=eps)
            return total

        assert gradcheck(f, leaves, max_entries=6, rng=np.random.default_rng(11)) < 1e-3


class TestMetrics:
    """ADE and FDE of one future: ``best_of_k`` with K=1."""

    def test_perfect(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(3, 5, 2))
        ade, fde = best_of_k(gt[None], gt, np.ones((3, 5), dtype=bool))
        assert ade == 0.0 and fde == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(3, 5, 2))
        pred = gt + np.array([1.0, 0.0])
        ade, fde = best_of_k(pred[None], gt, np.ones((3, 5), dtype=bool))
        assert ade == pytest.approx(1.0, abs=1e-12)
        assert fde == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_case_matches_oracle(self):
        gt = np.zeros((2, 3, 2))
        pred = np.array([
            [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]],
            [[0.0, 0.0], [6.0, 8.0], [0.0, 1.0]],
        ])
        presence = np.array([[True, True, True], [True, False, True]])
        ade, fde = best_of_k(pred[None], gt, presence)
        o_ade, o_fde = ade_fde_oracle(pred, gt, presence)
        assert ade == o_ade and fde == o_fde
        assert ade == pytest.approx((1 + 2 + 5 + 0 + 1) / 5)
        assert fde == pytest.approx((5 + 1) / 2)

    def test_last_present_step_fde(self):
        gt = np.zeros((1, 4, 2))
        pred = np.zeros((1, 4, 2))
        pred[0, 2] = [0.0, 7.0]
        pred[0, 3] = [9.0, 9.0]
        presence = np.array([[True, True, True, False]])  # last present step is t=2
        _, fde = best_of_k(pred[None], gt, presence)
        assert fde == pytest.approx(7.0)

    def test_no_present_steps_rejected(self):
        with pytest.raises(MetricError):
            best_of_k(np.zeros((1, 1, 3, 2)), np.zeros((1, 3, 2)), np.zeros((1, 3), dtype=bool))


class TestBestOfK:
    def test_single_sample_equals_ade_fde(self):
        rng = np.random.default_rng(2)
        gt = rng.normal(size=(2, 4, 2))
        pred = rng.normal(size=(2, 4, 2))
        presence = np.ones((2, 4), dtype=bool)
        np.testing.assert_allclose(best_of_k(pred[None], gt, presence), ade_fde_oracle(pred, gt, presence),
                                   rtol=1e-14)

    def test_perfect_sample_among_twenty(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(3, 5, 2))
        samples = rng.normal(size=(20, 3, 5, 2))
        samples[13] = gt
        presence = np.ones((3, 5), dtype=bool)
        assert best_of_k(samples, gt, presence) == (0.0, 0.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(2, 6, 2))
        presence = np.ones((2, 6), dtype=bool)
        samples = rng.normal(size=(10, 2, 6, 2))
        prev_ade, prev_fde = np.inf, np.inf
        for k in range(1, 11):
            a, f = best_of_k(samples[:k], gt, presence)
            assert a <= prev_ade + 1e-15
            assert f <= prev_fde + 1e-15
            prev_ade, prev_fde = a, f

    def test_minima_taken_independently(self):
        gt = np.zeros((1, 2, 2))
        presence = np.ones((1, 2), dtype=bool)
        # sample 0: best ADE but bad FDE; sample 1: worse ADE, perfect FDE
        s0 = np.array([[[0.0, 0.0], [0.0, 1.0]]])
        s1 = np.array([[[5.0, 0.0], [0.0, 0.0]]])
        assert best_of_k(np.stack([s0, s1]), gt, presence) == (0.5, 0.0)

    def test_vectorized_equals_per_sample_loop(self):
        """One pass over K equals K=1 scoring sample by sample, with holes
        and an agent that has no future step."""
        rng = np.random.default_rng(5)
        gt = rng.normal(size=(4, 6, 2))
        presence = rng.random((4, 6)) < 0.7
        presence[0, 0] = True
        presence[2] = False  # no future step
        samples = rng.normal(size=(7, 4, 6, 2))
        per_sample = np.array([best_of_k(s[None], gt, presence) for s in samples])
        np.testing.assert_allclose(per_sample, [ade_fde_oracle(s, gt, presence) for s in samples],
                                   rtol=1e-14)
        assert best_of_k(samples, gt, presence) == (per_sample[:, 0].min(), per_sample[:, 1].min())

    def test_no_present_steps_rejected(self):
        with pytest.raises(MetricError):
            best_of_k(np.zeros((3, 2, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4), dtype=bool))


def test_observed_embedding_masks_absent(tiny_cfg):
    model = randomize_params(CrowdForecaster(tiny_cfg, seed=0), 1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 2))
    pres = np.ones((2, 8), dtype=bool)
    pres[1, 5] = False
    a = observed_embedding(model.params, x, pres).data
    x2 = x.copy()
    x2[1, 5] = 99.0  # absent slot content must not matter
    b = observed_embedding(model.params, x2, pres).data
    np.testing.assert_array_equal(a, b)
