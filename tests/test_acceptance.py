"""Acceptance suite: one test per criterion, each printing a PASS line.

Full-scale benchmark numbers are reference-only (see README); acceptance
rests on the property suites below.  The end-to-end training test runs
the real 300-epoch default configuration and dominates suite runtime.
"""

import time

import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.attention import AttentionMask, capture, masked_mha, pairwise_distances
from crowdcast.autodiff import Tensor, backward, numerical_gradient
from crowdcast.config import TrainConfig
from crowdcast.cvae import best_of_k
from crowdcast.data import normalize_window, synth_generate, window_scene
from crowdcast.fusion import fuse
from crowdcast.hypergraph import build_hyperedges_knn, mahalanobis_matrix, multiscale_group_features, similarity_matrix
from crowdcast.model import CrowdForecaster
from crowdcast.train import ConstantVelocityModel, evaluate, train, write_metrics_jsonl, write_summary_csv
from crowdcast.transformer import spatial_forward, temporal_forward, track_embedding

from conftest import one_segment, random_window, randomize_params, tiny_config
from test_attention import mha_oracle, mha_params
from test_cvae import ade_fde_oracle
from test_hypergraph import (
    IDENTITY_SCALE,
    hypergraph_laplacian,
    isotropic_embeddings,
    knn_oracle,
    partition_cost,
    random_hypergraph,
    random_walk_matrix,
    transition_matrix,
)


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_hypergraph_algebra_suite():
    """200 random hypergraphs: walk stochasticity, symmetry, spectrum, null space."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(200):
        g = random_hypergraph(rng, n_max=12)
        p = transition_matrix(g)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        o = random_walk_matrix(g)
        assert np.max(np.abs(o - o.T)) < 1e-12
        delta = hypergraph_laplacian(g)
        assert np.linalg.eigvalsh(delta).min() >= -1e-8
        null = np.sqrt(g.vertex_degrees)
        np.testing.assert_allclose(delta @ null, 0.0, atol=1e-9)
        assert abs(partition_cost(g, null)) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("hypergraph-algebra", f"200 random hypergraphs in {elapsed:.2f}s")


def test_knn_construction_oracle():
    """100 random embedding sets: incidence equals the brute-force sort oracle."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        if k >= n:
            k = n - 1
        q = rng.normal(size=(n, 5))
        sim = similarity_matrix(mahalanobis_matrix(q))
        [(incidence, _)] = build_hyperedges_knn(sim, [k])
        np.testing.assert_array_equal(incidence, knn_oracle(sim, k))
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report("knn-construction", f"100 cases in {elapsed:.2f}s")


def test_mahalanobis_identity_reduction():
    """Embeddings with an identity sample covariance: the Mahalanobis
    distance is the Euclidean one over the regularization (<= 1e-10)."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        q = isotropic_embeddings(rng, int(rng.integers(d + 2, 10)), d)
        dis = mahalanobis_matrix(q)
        worst = max(worst, float(np.max(np.abs(dis - pairwise_distances(q) / IDENTITY_SCALE))))
    assert worst < 1e-10
    report("mahalanobis-reduction", f"50 cases, worst abs err {worst:.2e}")


def test_attention_correctness():
    """Masked keys ~0 weight, rows sum to 1, scalar-loop agreement <= 1e-10."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        d, heads = 8, 2
        lq = int(rng.integers(2, 6))
        lk = int(rng.integers(2, 7))
        p = mha_params(rng, d)
        q_in = rng.normal(size=(lq, d))
        kv_in = rng.normal(size=(lk, d))
        bias = rng.normal(size=(lq, lk))
        absent = rng.random((lq, lk)) < 0.3
        absent[:, 0] = False
        mask = AttentionMask(bias=Tensor(bias), absent=absent)
        with capture() as kept:
            out = masked_mha(p, "blk", Tensor(q_in), Tensor(kv_in), heads, mask=mask)
        w = kept["blk"]
        assert np.all(w[np.broadcast_to(absent[None], w.shape)] < 1e-12)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
        expected = mha_oracle(p, "blk", q_in, kv_in, heads, mask_values=mask.values())
        worst = max(worst, float(np.max(np.abs(out.data - expected))))
    assert worst < 1e-10
    report("attention-correctness", f"50 cases, worst oracle gap {worst:.2e}")


def test_gradient_suite():
    """Every parameter tensor of the full model passes a 64-bit central
    finite-difference check on a 3-agent window (rel err < 1e-3).

    Dims are reduced so the check covers the whole architecture inside the
    runtime budget; tensors larger than 24 entries are probed at 24
    deterministically chosen entries, smaller ones exhaustively.
    """
    t0 = time.perf_counter()
    cfg = tiny_config()
    model = randomize_params(CrowdForecaster(cfg, seed=3), seed=13)
    window, _ = normalize_window(random_window(29, n=3))
    eps = np.random.default_rng(4).standard_normal((3, cfg.d_z))

    def f():
        total, _ = model.training_loss(window, latent_eps=eps)
        return total

    for t in model.params.values():
        t.zero_grad()
    loss = f()
    backward(loss)
    analytic = {name: (None if t.grad is None else t.grad.copy()) for name, t in model.params.items()}

    pick = np.random.default_rng(99)
    worst_name, worst = "", 0.0
    for name in sorted(model.params):
        t = model.params[name]
        if t.size > 24:
            idx = pick.choice(t.size, size=24, replace=False)
        else:
            idx = range(t.size)
        fd = numerical_gradient(f, t, indices=idx, h=1e-5)
        an = np.zeros(t.size) if analytic[name] is None else analytic[name].reshape(-1)
        for i, num in fd.items():
            rel = abs(an[i] - num) / max(abs(an[i]), abs(num), 1e-6)
            if rel > worst:
                worst_name, worst = f"{name}[{i}]", rel
        assert worst < 1e-3, f"{worst_name} rel err {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("gradient-suite", f"{len(model.params)} tensors, worst {worst_name} {worst:.2e}, {elapsed:.1f}s")


def test_equivariance_suite():
    """Agent-permutation equivariance of the three crowd encoders (<= 1e-8)."""
    rng = np.random.default_rng(31)
    cfg = tiny_config(scales=(2, 3))
    model = randomize_params(CrowdForecaster(cfg, seed=1), seed=7)
    params = model.params
    worst = 0.0
    hyper_trials = 0
    for trial in range(20):
        n = int(rng.integers(3, 7))
        window = random_window(100 + trial, n=n, holes=trial % 3 == 0)
        x_obs, pres = window.observed()
        perm = rng.permutation(n)
        blocks = one_segment(n)

        s = spatial_forward(params, cfg, x_obs, pres, blocks).data
        s_p = spatial_forward(params, cfg, x_obs[perm], pres[perm], blocks).data
        worst = max(worst, float(np.max(np.abs(s_p - s[perm]))))

        q = track_embedding(params, "hyper/embed", x_obs, pres).data
        sim = similarity_matrix(mahalanobis_matrix(q))
        rows_distinct = all(
            np.unique(np.delete(sim[i], i).round(12)).size == n - 1 for i in range(n)
        )
        if rows_distinct:  # index tie-breaks would break equivariance
            hyper_trials += 1
            h = multiscale_group_features(x_obs, pres, params, "hyper", cfg.scales, blocks)[0].data
            h_p = multiscale_group_features(x_obs[perm], pres[perm], params, "hyper", cfg.scales, blocks)[0].data
            worst = max(worst, float(np.max(np.abs(h_p - h[perm]))))

        t = temporal_forward(params, cfg, x_obs, pres)
        hh, _ = multiscale_group_features(x_obs, pres, params, "hyper", cfg.scales, blocks)
        spat = spatial_forward(params, cfg, x_obs, pres, blocks)
        fused = fuse(params, cfg, spat, t, hh).data
        t_p = temporal_forward(params, cfg, x_obs[perm], pres[perm])
        hh_p, _ = multiscale_group_features(x_obs[perm], pres[perm], params, "hyper", cfg.scales, blocks)
        spat_p = spatial_forward(params, cfg, x_obs[perm], pres[perm], blocks)
        fused_p = fuse(params, cfg, spat_p, t_p, hh_p).data
        worst = max(worst, float(np.max(np.abs(fused_p - fused[perm]))))
    assert worst < 1e-8
    assert hyper_trials >= 10  # the hypergraph leg must actually be exercised
    report("equivariance", f"20 windows ({hyper_trials} with distinct similarities), worst deviation {worst:.2e}")


def test_metric_oracles():
    """best_of_k at K=1 matches the scalar reference; minADE_K non-increasing."""
    gt = np.zeros((2, 3, 2))
    pred = np.array([
        [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]],
        [[0.0, 0.0], [6.0, 8.0], [0.0, 1.0]],
    ])
    presence = np.array([[True, True, True], [True, False, True]])
    assert best_of_k(pred[None], gt, presence) == ade_fde_oracle(pred, gt, presence)

    rng = np.random.default_rng(47)
    for _ in range(100):
        n, t, kmax = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 9))
        gt = rng.normal(size=(n, t, 2))
        pres = np.ones((n, t), dtype=bool)
        samples = rng.normal(size=(kmax, n, t, 2))
        prev = (np.inf, np.inf)
        for k in range(1, kmax + 1):
            cur = best_of_k(samples[:k], gt, pres)
            assert cur[0] <= prev[0] + 1e-15 and cur[1] <= prev[1] + 1e-15
            prev = cur
    report("metric-oracle", "hand-built exact + 100 monotonicity cases")


@pytest.mark.slow
def test_end_to_end_training_sanity():
    """Default config on the seed-7 corpus: convergence, best-of-K ordering,
    and parity with the constant-velocity baseline on interacting scenes."""
    t0 = time.perf_counter()
    scenes = synth_generate(seed=7, n_scenes=12, agents_range=(3, 6))
    train_windows = [w for s in scenes[:11] for w in window_scene(s)][:64]
    held_out = window_scene(scenes[11])
    assert len(train_windows) == 64

    cfg = TrainConfig(seed=7)  # defaults: 300 epochs, lr 1e-4, batch 8
    model, rep = train(cfg, train_windows)
    first = rep["epochs"][0]["total"]
    last = rep["epochs"][-1]["total"]
    assert last <= 0.20 * first, f"loss ratio {last / first:.3f}"

    _, (ade20, _) = evaluate(model, held_out, k=20, seed=0)
    _, (ade1, _) = evaluate(model, held_out, k=1, seed=0)
    assert ade20 <= ade1 + 1e-12

    inter = synth_generate(seed=70, n_scenes=3, agents_range=(3, 6), kinds=("avoid", "group"))
    inter_windows = [w for s in inter for w in window_scene(s, stride=4)]
    _, (cv_ade, _) = evaluate(ConstantVelocityModel(), inter_windows, k=1, seed=0)
    _, (model_ade20, _) = evaluate(model, inter_windows, k=20, seed=0)
    assert model_ade20 <= 1.2 * cv_ade, f"model {model_ade20:.3f} vs 1.2x cv {1.2 * cv_ade:.3f}"

    elapsed = time.perf_counter() - t0
    report("end-to-end-training",
           f"loss {first:.2f}->{last:.2f} ({last / first:.1%}), held-out minADE20 {ade20:.3f} "
           f"<= minADE1 {ade1:.3f}, interacting {model_ade20:.3f} vs cv {cv_ade:.3f}, "
           f"{elapsed / 60:.1f} min")


def test_full_determinism(tmp_path):
    """Identical (config, seed) runs: bit-identical checkpoints + metric files."""
    cfg = tiny_config(epochs=3, batch_size=4, seed=5)
    scenes = synth_generate(seed=9, n_scenes=3, agents_range=(3, 4))
    windows = [w for s in scenes for w in window_scene(s, stride=4)]
    blobs = []
    for run in ("one", "two"):
        out = tmp_path / run
        out.mkdir()
        model, _ = train(cfg, windows, out_dir=str(out))
        rows, agg = evaluate(model, windows[:4], k=5, seed=3, fold="synth")
        write_metrics_jsonl(out / "metrics.jsonl", rows)
        write_summary_csv(out / "summary.csv", [("synth", agg[0], agg[1])], k=5)
        blobs.append(tuple((out / f).read_bytes()
                           for f in ("final.ckpt", "metrics.jsonl", "summary.csv")))
    assert blobs[0] == blobs[1]
    report("determinism", "checkpoint + metrics byte-identical across runs")
