import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.autodiff import Tensor, gradcheck
from crowdcast.hypergraph import (
    Hypergraph,
    HypergraphError,
    build_hyperedges_knn,
    effective_scales,
    embed_trajectories,
    hypergraph_convolve,
    hypergraph_laplacian,
    mahalanobis_matrix,
    multiscale_group_features,
    partition_cost,
    random_walk_matrix,
    similarity_matrix,
    transition_matrix,
)


def random_hypergraph(rng, n_max=12):
    """Random valid hypergraph: every edge >= 2 vertices, no isolated vertex."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, 2 * n))
    H = np.zeros((n, m))
    for e in range(m):
        size = int(rng.integers(2, n + 1))
        members = rng.choice(n, size=size, replace=False)
        H[members, e] = 1.0
    lonely = np.nonzero(H.sum(axis=1) == 0)[0]
    if lonely.size:
        if lonely.size == 1:
            buddy = rng.choice(np.setdiff1d(np.arange(n), lonely))
            extra = np.zeros((n, 1))
            extra[[lonely[0], buddy], 0] = 1.0
        else:
            extra = np.zeros((n, 1))
            extra[lonely, 0] = 1.0
        H = np.concatenate([H, extra], axis=1)
    w = rng.uniform(0.5, 2.0, size=H.shape[1])
    return Hypergraph(incidence=H, edge_weights=w, scale=0)


def knn_oracle(s, k):
    """Brute-force incidence: per-vertex row sort with index tie-break."""
    n = s.shape[0]
    edges, seen = [], set()
    for v in range(n):
        ranked = sorted((j for j in range(n) if j != v), key=lambda j: (-s[v, j], j))
        edge = tuple(sorted([v] + ranked[:k]))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    H = np.zeros((n, len(edges)))
    for e, members in enumerate(edges):
        H[list(members), e] = 1.0
    return H


def two_vertex_graph():
    return Hypergraph(incidence=np.ones((2, 1)), edge_weights=np.ones(1), scale=1)


def hyper_params(rng, t_in, d_emb, d_model, n_scales, requires_grad=True):
    p = {}

    def mk(name, shape):
        p[name] = Tensor(rng.uniform(-0.4, 0.4, size=shape), requires_grad=requires_grad)

    mk("hyper/embed/w", (2 * t_in, d_emb))
    mk("hyper/embed/b", (d_emb,))
    for i in range(n_scales):
        mk(f"hyper/conv{i}/theta1", (d_emb, d_model))
        mk(f"hyper/conv{i}/theta2", (d_model, d_model))
    mk("hyper/mlp/w1", (d_model, d_model))
    mk("hyper/mlp/b1", (d_model,))
    mk("hyper/mlp/w2", (d_model, d_model))
    mk("hyper/mlp/b2", (d_model,))
    return p


class TestEmbedding:
    def test_zero_input_zero_bias(self):
        w = Tensor(np.ones((8, 4)))
        b = Tensor(np.zeros(4))
        x = np.zeros((2, 4, 2))
        pres = np.ones((2, 4), dtype=bool)
        out = embed_trajectories(x, pres, w, b)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identical_tracks_identical_embeddings(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(8, 5)))
        b = Tensor(rng.normal(size=(5,)))
        track = rng.normal(size=(4, 2))
        x = np.stack([track, track, rng.normal(size=(4, 2))])
        pres = np.ones((3, 4), dtype=bool)
        out = embed_trajectories(x, pres, w, b).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_gradient(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        x = rng.normal(size=(3, 4, 2))
        pres = np.ones((3, 4), dtype=bool)
        probe = rng.normal(size=(3, 5))

        def f():
            return ad.tsum(ad.mul(embed_trajectories(x, pres, w, b), Tensor(probe)))

        assert gradcheck(f, [w, b]) < 1e-4


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        q = np.array([[0.0, 0.0], [3.0, 4.0]])
        dis = mahalanobis_matrix(q, covariance=np.eye(2))
        assert dis[0, 1] == pytest.approx(5.0, abs=1e-12)
        assert dis[0, 0] == 0.0

    def test_identical_embeddings_zero(self):
        q = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        dis = mahalanobis_matrix(q)
        assert dis[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(5, 3))
        dis = mahalanobis_matrix(q)
        cov = np.cov(q, rowvar=False)
        cov_reg = cov + (1e-3 * np.trace(cov) / 3 + 1e-12) * np.eye(3)
        inv = np.linalg.inv(cov_reg)
        for i in range(5):
            for j in range(5):
                d = q[i] - q[j]
                expected = np.sqrt(max(d @ inv @ d, 0.0))
                denom = max(expected, 1e-12)
                assert abs(dis[i, j] - expected) / denom < 1e-8

    def test_identity_hook_reduces_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, d = rng.integers(2, 9), rng.integers(1, 6)
            q = rng.normal(size=(n, d))
            dis = mahalanobis_matrix(q, covariance=np.eye(d))
            eucl = np.linalg.norm(q[:, None] - q[None, :], axis=-1)
            assert np.max(np.abs(dis - eucl)) < 1e-10

    def test_single_agent_rejected(self):
        with pytest.raises(HypergraphError):
            mahalanobis_matrix(np.zeros((1, 3)))


class TestSimilarity:
    def test_distance_equal_bandwidth(self):
        dis = np.array([[0.0, 2.0], [2.0, 0.0]])  # rho = 2
        sim = similarity_matrix(dis)
        assert sim.bandwidth == pytest.approx(2.0)
        assert sim.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_degenerate_all_zero(self):
        sim = similarity_matrix(np.zeros((4, 4)))
        np.testing.assert_array_equal(sim.values, 1.0)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(4, 3))
        dis = mahalanobis_matrix(q, covariance=np.eye(3))
        sim = similarity_matrix(dis)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        rho = sum(dis[i, j] for i, j in pairs) / len(pairs)
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else np.exp(-dis[i, j] ** 2 / rho**2)
                assert abs(sim.values[i, j] - expected) < 1e-12


class TestKnnConstruction:
    def test_three_colinear(self):
        q = np.array([[0.0], [1.0], [3.0]])
        dis = mahalanobis_matrix(q, covariance=np.eye(1))
        g = build_hyperedges_knn(similarity_matrix(dis), k=1)
        assert g.n_edges == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_full_scale_single_edge(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(6, 2))
        sim = similarity_matrix(mahalanobis_matrix(q))
        g = build_hyperedges_knn(sim, k=5)
        assert g.n_edges == 1
        assert g.edges() == [tuple(range(6))]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, min(4, n)))
            q = rng.normal(size=(n, 4))
            sim = similarity_matrix(mahalanobis_matrix(q))
            g = build_hyperedges_knn(sim, k)
            np.testing.assert_array_equal(g.incidence, knn_oracle(sim.values, k))

    def test_exact_ties_break_toward_lower_index(self):
        """Similarities drawn from three values tie often; edges and their
        order must match the per-vertex sort oracle exactly."""
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            s = rng.choice([0.25, 0.5, 1.0], size=(n, n))
            s = np.triu(s, 1) + np.triu(s, 1).T + np.eye(n)
            for k in range(1, n):
                np.testing.assert_array_equal(build_hyperedges_knn(s, k).incidence, knn_oracle(s, k))
        uniform = np.full((5, 5), 0.5)
        g = build_hyperedges_knn(uniform, 2)
        assert g.edges() == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]

    def test_scale_bounds(self):
        sim = similarity_matrix(np.abs(np.random.default_rng(0).normal(size=(3, 3))))
        with pytest.raises(HypergraphError):
            build_hyperedges_knn(sim, k=3)
        with pytest.raises(HypergraphError):
            build_hyperedges_knn(sim, k=0)


class TestWalkOperators:
    def test_two_vertex_walk(self):
        o = random_walk_matrix(two_vertex_graph())
        np.testing.assert_allclose(o, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_stationary_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_hypergraph(rng)
            o = random_walk_matrix(g)
            v = np.sqrt(g.vertex_degrees)
            np.testing.assert_allclose(o @ v, v, atol=1e-10)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(8)
        g = random_hypergraph(rng, n_max=6)
        H, w = g.incidence, g.edge_weights
        n, m = H.shape
        # per-entry transition probability, then degree-symmetrized
        p = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for e in range(m):
                    p[i, j] += w[e] * H[i, e] * H[j, e] / (g.vertex_degrees[i] * g.edge_degrees[e])
        sym = np.diag(np.sqrt(g.vertex_degrees)) @ p @ np.diag(1.0 / np.sqrt(g.vertex_degrees))
        np.testing.assert_allclose(transition_matrix(g), p, atol=1e-10)
        np.testing.assert_allclose(random_walk_matrix(g), sym, atol=1e-10)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_hypergraph(rng)
            rows = transition_matrix(g).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = random_hypergraph(rng)
            o = random_walk_matrix(g)
            assert np.max(np.abs(o - o.T)) < 1e-12
            assert np.linalg.eigvalsh(o).min() > -1e-10


class TestLaplacian:
    def test_two_vertex_case(self):
        delta = hypergraph_laplacian(two_vertex_graph())
        np.testing.assert_allclose(delta, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(delta)), [0.0, 1.0], atol=1e-12)

    def test_complete_edge_rank(self):
        n = 5
        g = Hypergraph(incidence=np.ones((n, 1)), edge_weights=np.ones(1), scale=n - 1)
        delta = hypergraph_laplacian(g)
        rank = np.sum(np.abs(np.linalg.eigvalsh(delta)) > 1e-10)
        assert rank == n - 1

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(11)
        g = random_hypergraph(rng)
        delta = hypergraph_laplacian(g)
        for _ in range(100):
            f = rng.normal(size=g.n_vertices)
            assert f @ delta @ f > -1e-10

    def test_eigenvalue_range(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_hypergraph(rng)
            eig = np.linalg.eigvalsh(hypergraph_laplacian(g))
            assert eig.min() > -1e-8 and eig.max() < 2 + 1e-8


class TestPartitionCost:
    def test_null_vector(self):
        rng = np.random.default_rng(13)
        g = random_hypergraph(rng)
        f = np.sqrt(g.vertex_degrees)
        assert abs(partition_cost(g, f)) < 1e-10

    def test_two_vertex_indicator(self):
        assert partition_cost(two_vertex_graph(), np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_trace_identity(self):
        rng = np.random.default_rng(14)
        g = random_hypergraph(rng)
        F = rng.normal(size=(g.n_vertices, 3))
        direct = partition_cost(g, F)
        columnwise = sum(partition_cost(g, F[:, i]) for i in range(3))
        assert abs(direct - columnwise) < 1e-12


class TestConvolution:
    def test_averaging_operator_constant_rows(self):
        n, d = 4, 3
        g = Hypergraph(incidence=np.ones((n, 1)), edge_weights=np.ones(1), scale=n - 1)
        c = np.array([1.5, -2.0, 0.5])
        x = Tensor(np.tile(c, (n, 1)))
        y = hypergraph_convolve(random_walk_matrix(g), x, Tensor(np.eye(d)))
        np.testing.assert_allclose(y.data, np.tile(np.maximum(c, 0.0), (n, 1)), atol=1e-12)

    def test_zero_features(self):
        g = two_vertex_graph()
        y = hypergraph_convolve(random_walk_matrix(g), Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 3))))
        np.testing.assert_array_equal(y.data, 0.0)

    def test_gradient_wrt_features_and_weights(self):
        rng = np.random.default_rng(15)
        g = random_hypergraph(rng, n_max=5)
        x = Tensor(rng.normal(size=(g.n_vertices, 4)), requires_grad=True)
        theta = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        probe = rng.normal(size=(g.n_vertices, 4))

        def f():
            return ad.tsum(ad.mul(hypergraph_convolve(random_walk_matrix(g), x, theta), Tensor(probe)))

        assert gradcheck(f, [x, theta]) < 1e-4


class TestMultiscale:
    def test_shape_three_scales(self):
        rng = np.random.default_rng(16)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=3)
        x = rng.normal(size=(9, 8, 2))
        pres = np.ones((9, 8), dtype=bool)
        out = multiscale_group_features(x, pres, p, "hyper", (2, 3, 4))
        assert out.shape == (9, 3, 8)

    def test_scale_clamping_two_agents(self):
        rng = np.random.default_rng(17)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=3)
        x = rng.normal(size=(2, 8, 2))
        pres = np.ones((2, 8), dtype=bool)
        out = multiscale_group_features(x, pres, p, "hyper", (2, 3, 4))
        assert out.shape == (2, 1, 8)
        assert effective_scales((2, 3, 4), 2) == [(1, 0)]

    def test_single_agent_zero_feature(self):
        rng = np.random.default_rng(18)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=3)
        x = rng.normal(size=(1, 8, 2))
        pres = np.ones((1, 8), dtype=bool)
        out = multiscale_group_features(x, pres, p, "hyper", (2, 3, 4))
        assert out.shape == (1, 1, 8)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=2, requires_grad=False)
        x = rng.normal(size=(6, 8, 2))
        pres = np.ones((6, 8), dtype=bool)
        base = multiscale_group_features(x, pres, p, "hyper", (2, 3)).data
        perm = rng.permutation(6)
        permuted = multiscale_group_features(x[perm], pres[perm], p, "hyper", (2, 3)).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-8)

    def test_dump_records_edges(self):
        rng = np.random.default_rng(20)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=2)
        x = rng.normal(size=(5, 8, 2))
        pres = np.ones((5, 8), dtype=bool)
        dump = []
        multiscale_group_features(x, pres, p, "hyper", (2, 3), dump=dump)
        assert [d["scale"] for d in dump] == [2, 3]
        for d in dump:
            for edge in d["edges"]:
                assert len(edge) >= 2
