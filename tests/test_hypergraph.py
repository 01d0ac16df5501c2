from dataclasses import dataclass

import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast import attention
from crowdcast.attention import pairwise_distances
from crowdcast.autodiff import Tensor, gradcheck
from crowdcast.hypergraph import (
    HypergraphError,
    build_hyperedges_knn,
    effective_scales,
    mahalanobis_matrix,
    multiscale_group_features,
    similarity_matrix,
)
from crowdcast.transformer import graph_convolve, track_embedding
from conftest import one_segment


# -- oracles: the hypergraph algebra of Zhou, Huang and Schoelkopf (NIPS 2006),
# for any incidence and positive edge weights, and the single-scale KNN
# construction that ``build_hyperedges_knn`` generalizes

@dataclass
class Hypergraph:
    """Incidence structure for one KNN scale with diagonal weights/degrees.

    Construction checks that every vertex degree is positive.
    """

    incidence: np.ndarray  # H in {0,1}^[N, M]
    edge_weights: np.ndarray  # w(e) > 0, [M]

    def __post_init__(self):
        H = np.asarray(self.incidence, dtype=np.float64)
        w = np.asarray(self.edge_weights, dtype=np.float64)
        if H.ndim != 2 or w.shape != (H.shape[1],):
            raise HypergraphError(f"incidence {H.shape} / weights {w.shape} disagree")
        if not np.all((H == 0.0) | (H == 1.0)):
            raise HypergraphError("incidence entries must be 0 or 1")
        if np.any(H.sum(axis=0) < 2):
            raise HypergraphError("every hyperedge must link >= 2 vertices")
        if np.any(H.sum(axis=1) < 1):
            raise HypergraphError("every vertex must belong to >= 1 hyperedge")
        if np.any(w <= 0):
            raise HypergraphError("edge weights must be positive")
        self.incidence = H
        self.edge_weights = w
        self.vertex_degrees = H @ w  # d(v) = sum_e w(e) H(v,e)
        self.edge_degrees = H.sum(axis=0)  # d(e) = sum_v H(v,e)

    @property
    def n_vertices(self):
        return self.incidence.shape[0]


def knn_hypergraph(similarity, k):
    """One hyperedge per vertex: itself plus its K most similar peers.

    Ties break toward the lower agent index; duplicate vertex sets merge,
    so M <= N.  Edge weights are identity.
    """
    s = np.asarray(similarity)
    n = s.shape[0]
    if not 1 <= k <= n - 1:
        raise HypergraphError(f"KNN scale must satisfy 1 <= K <= N-1, got K={k}, N={n}")
    # row by row: most similar first, equal similarities in index order
    order = np.argsort(-s, axis=-1, kind="stable")
    peers = order[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, :k]
    members = np.sort(np.column_stack([np.arange(n), peers]), axis=1)
    edges = list(dict.fromkeys(map(tuple, members.tolist())))  # duplicates merged, first kept
    H = np.zeros((n, len(edges)))
    H[np.array(edges), np.arange(len(edges))[:, None]] = 1.0
    return Hypergraph(incidence=H, edge_weights=np.ones(len(edges)))


def transition_matrix(g):
    """Row-stochastic random walk P = M_v^-1 H W M_e^-1 H^T."""
    H, w = g.incidence, g.edge_weights
    return (H * (w / g.edge_degrees)) @ H.T / g.vertex_degrees[:, None]


def random_walk_matrix(g):
    """Symmetric walk O = M_v^-1/2 H W M_e^-1 H^T M_v^-1/2 (PSD)."""
    H, w = g.incidence, g.edge_weights
    inv_sqrt = 1.0 / np.sqrt(g.vertex_degrees)
    core = (H * (w / g.edge_degrees)) @ H.T
    return inv_sqrt[:, None] * core * inv_sqrt[None, :]


def hypergraph_laplacian(g):
    """Delta = I - O; symmetric PSD with M_v^1/2 1 in its null space."""
    o = random_walk_matrix(g)
    return np.eye(g.n_vertices) - o


def partition_cost(g, f):
    """trace(F^T Delta F): smoothness of indicator-like columns."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    delta = hypergraph_laplacian(g)
    return float(np.trace(f.T @ delta @ f))


def edges(incidence):
    """Hyperedges as sorted vertex-index tuples, in column order."""
    return [tuple(np.nonzero(col)[0].tolist()) for col in incidence.T]


# Mahalanobis regularization of an identity sample covariance: 1 + 1e-3 * trace/d + 1e-12
IDENTITY_SCALE = np.sqrt(1.0 + 1e-3 + 1e-12)


def isotropic_embeddings(rng, n, d):
    """n > d random embeddings whitened to an identity sample covariance."""
    r = rng.normal(size=(n, d))
    chol = np.linalg.cholesky(np.atleast_2d(np.cov(r, rowvar=False)))
    return np.linalg.solve(chol, (r - r.mean(axis=0)).T).T


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
    return Hypergraph(incidence=H, edge_weights=w)


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
    return Hypergraph(incidence=np.ones((2, 1)), edge_weights=np.ones(1))


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
    """``track_embedding``, which embeds tracks for the hypergraph branch
    (``hyper/embed``) and the CVAE head (``cvae/obs``)."""

    def test_zero_input_zero_bias(self):
        w = Tensor(np.ones((8, 4)))
        b = Tensor(np.zeros(4))
        x = np.zeros((2, 4, 2))
        pres = np.ones((2, 4), dtype=bool)
        out = track_embedding({"e/w": w, "e/b": b}, "e", x, pres)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identical_tracks_identical_embeddings(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(8, 5)))
        b = Tensor(rng.normal(size=(5,)))
        track = rng.normal(size=(4, 2))
        x = np.stack([track, track, rng.normal(size=(4, 2))])
        pres = np.ones((3, 4), dtype=bool)
        out = track_embedding({"e/w": w, "e/b": b}, "e", x, pres).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_gradient(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        x = rng.normal(size=(3, 4, 2))
        pres = np.ones((3, 4), dtype=bool)
        probe = rng.normal(size=(3, 5))

        def f():
            return ad.tsum(ad.mul(track_embedding({"e/w": w, "e/b": b}, "e", x, pres), Tensor(probe)))

        assert gradcheck(f, [w, b]) < 1e-4


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        """The corners of a square have an identity sample covariance, so
        their distances are the Euclidean ones over the regularization."""
        q = np.sqrt(0.75) * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(np.cov(q, rowvar=False), np.eye(2), atol=1e-15)
        dis = mahalanobis_matrix(q)
        np.testing.assert_allclose(dis, pairwise_distances(q) / IDENTITY_SCALE, rtol=0, atol=1e-12)
        assert dis[0, 0] == 0.0

    def test_identical_embeddings_zero(self):
        q = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        dis = mahalanobis_matrix(q)
        assert dis[0, 1] == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def dense_inverse_oracle(q):
        """Distances under the inverse of the regularized [d, d] sample
        covariance, pair by pair."""
        n, d = q.shape
        cov = np.atleast_2d(np.cov(q, rowvar=False))
        inv = np.linalg.inv(cov + (1e-3 * np.trace(cov) / d + 1e-12) * np.eye(d))
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                diff = q[i] - q[j]
                out[i, j] = np.sqrt(max(diff @ inv @ diff, 0.0))
        return out

    def test_matches_dense_inverse_oracle(self):
        q = np.random.default_rng(2).normal(size=(5, 3))
        dis, expected = mahalanobis_matrix(q), self.dense_inverse_oracle(q)
        assert np.max(np.abs(dis - expected) / np.maximum(expected, 1e-12)) < 1e-8

    @pytest.mark.parametrize("n, d", [(2, 8), (4, 8), (6, 64), (9, 8), (65, 64), (12, 8), (40, 3)])
    def test_gram_form_matches_dense_inverse(self, n, d):
        """Fewer agents than dim + 1 (the Gram matrix has full rank n - 1),
        exactly dim + 1, and more: distances within 1e-10 relative, and the
        same KNN hyperedges at every scale."""
        q = np.random.default_rng(n * 100 + d).normal(size=(n, d))
        dis, expected = mahalanobis_matrix(q), self.dense_inverse_oracle(q)
        assert np.max(np.abs(dis - expected) / np.maximum(expected, 1e-12)) < 1e-10
        assert np.array_equal(dis, dis.T) and not np.diag(dis).any()
        scales = range(1, n)
        graphs = build_hyperedges_knn(similarity_matrix(dis), scales)
        expected_graphs = build_hyperedges_knn(similarity_matrix(expected), scales)
        for (incidence, _), (expected_incidence, _) in zip(graphs, expected_graphs):
            np.testing.assert_array_equal(incidence, expected_incidence)

    def test_few_agents_sit_about_sqrt_2_n_minus_1_apart(self):
        """With n <= dim + 1, the regularized whitening puts every pair about
        sqrt(2 (n - 1)) apart, however the embeddings lie."""
        rng = np.random.default_rng(9)
        for n in (2, 3, 4, 8):
            q = rng.normal(size=(n, 64)) * rng.uniform(0.1, 10.0, size=64)
            dis = mahalanobis_matrix(q)
            off = dis[~np.eye(n, dtype=bool)]
            np.testing.assert_allclose(off, np.sqrt(2 * (n - 1)), rtol=2e-3)

    @pytest.mark.parametrize("n", [4, 12, 40])
    def test_repeated_embeddings_exactly_zero(self, n):
        """Any two equal rows are exactly 0 apart.  A Gram matrix taken as
        ``x @ x.T`` (a symmetric BLAS product) can round equal columns
        apart; with OpenBLAS that fails 13 of the 66 pairs at n = 12."""
        q = np.random.default_rng(n).normal(size=(n, 64))
        for i in range(n):
            for j in range(i + 1, n):
                twin = q.copy()
                twin[j] = twin[i]
                dis = mahalanobis_matrix(twin)
                assert dis[i, j] == dis[j, i] == 0.0, (i, j)

    def test_identity_hook_reduces_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            q = isotropic_embeddings(rng, int(rng.integers(d + 2, 10)), d)
            dis = mahalanobis_matrix(q)
            assert np.max(np.abs(dis - pairwise_distances(q) / IDENTITY_SCALE)) < 1e-10

    def test_single_agent_rejected(self):
        with pytest.raises(HypergraphError):
            mahalanobis_matrix(np.zeros((1, 3)))


class TestSimilarity:
    def test_distance_equal_bandwidth(self):
        dis = np.array([[0.0, 2.0], [2.0, 0.0]])  # bandwidth rho = 2
        sim = similarity_matrix(dis)
        np.testing.assert_allclose(sim, [[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]], rtol=0, atol=1e-12)

    def test_degenerate_all_zero(self):
        sim = similarity_matrix(np.zeros((4, 4)))
        np.testing.assert_array_equal(sim, 1.0)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(4, 3))
        dis = pairwise_distances(q)
        sim = similarity_matrix(dis)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        rho = sum(dis[i, j] for i, j in pairs) / len(pairs)
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else np.exp(-dis[i, j] ** 2 / rho**2)
                assert abs(sim[i, j] - expected) < 1e-12


class TestKnnConstruction:
    def test_three_colinear(self):
        q = np.array([[0.0], [1.0], [3.0]])
        [(incidence, _)] = build_hyperedges_knn(similarity_matrix(pairwise_distances(q)), [1])
        assert incidence.shape[1] == 2
        assert edges(incidence) == [(0, 1), (1, 2)]

    def test_full_scale_single_edge(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(6, 2))
        sim = similarity_matrix(mahalanobis_matrix(q))
        [(incidence, walk)] = build_hyperedges_knn(sim, [5])
        assert incidence.shape[1] == 1
        assert edges(incidence) == [tuple(range(6))]
        np.testing.assert_allclose(walk, np.full((6, 6), 1 / 6), rtol=0, atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, min(4, n)))
            q = rng.normal(size=(n, 4))
            sim = similarity_matrix(mahalanobis_matrix(q))
            [(incidence, _)] = build_hyperedges_knn(sim, [k])
            np.testing.assert_array_equal(incidence, knn_oracle(sim, k))

    def test_exact_ties_break_toward_lower_index(self):
        """Similarities drawn from three values tie often; edges and their
        order must match the per-vertex sort oracle exactly."""
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            s = rng.choice([0.25, 0.5, 1.0], size=(n, n))
            s = np.triu(s, 1) + np.triu(s, 1).T + np.eye(n)
            for k, (incidence, _) in zip(range(1, n), build_hyperedges_knn(s, range(1, n))):
                np.testing.assert_array_equal(incidence, knn_oracle(s, k))
        uniform = np.full((5, 5), 0.5)
        [(incidence, _)] = build_hyperedges_knn(uniform, [2])
        assert edges(incidence) == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]

    def test_scale_bounds(self):
        sim = similarity_matrix(np.abs(np.random.default_rng(0).normal(size=(3, 3))))
        with pytest.raises(HypergraphError):
            build_hyperedges_knn(sim, [3])
        with pytest.raises(HypergraphError):
            build_hyperedges_knn(sim, [1, 0])

    def test_every_scale_matches_the_single_scale_oracles(self):
        """200 random similarity matrices, n from 2 to 16, half of them
        drawn from three values so that exact ties are common, and every K
        from 1 to n - 1 in one call: each incidence equals the brute-force
        sort oracle, each walk operator the oracle algebra's on the
        single-scale hypergraph, and each hyperedge is a vertex with K
        distinct peers, every vertex lying in its own."""
        rng = np.random.default_rng(23)
        for trial in range(200):
            n = int(rng.integers(2, 17))
            s = rng.choice([0.25, 0.5, 1.0], size=(n, n)) if trial % 2 else rng.uniform(size=(n, n))
            s = np.triu(s, 1) + np.triu(s, 1).T + np.eye(n)
            scales = list(range(1, n))
            graphs = build_hyperedges_knn(s, scales)
            assert len(graphs) == len(scales)
            for k, (incidence, walk) in zip(scales, graphs):
                np.testing.assert_array_equal(incidence, knn_oracle(s, k))
                g = knn_hypergraph(s, k)  # validates the incidence
                np.testing.assert_array_equal(incidence, g.incidence)
                np.testing.assert_allclose(walk, random_walk_matrix(g), rtol=0, atol=1e-12)
                assert k >= 1 and np.all(incidence.sum(axis=0) == k + 1)
                present = set(edges(incidence))
                for v in range(n):
                    ranked = sorted((j for j in range(n) if j != v), key=lambda j: (-s[v, j], j))
                    assert tuple(sorted([v] + ranked[:k])) in present


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
        g = Hypergraph(incidence=np.ones((n, 1)), edge_weights=np.ones(1))
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
    """``graph_convolve`` on hypergraph walk operators and on a stack of
    per-timestep operators, as the spatial GCN residual runs it."""

    def test_averaging_operator_constant_rows(self):
        n, d = 4, 3
        g = Hypergraph(incidence=np.ones((n, 1)), edge_weights=np.ones(1))
        c = np.array([1.5, -2.0, 0.5])
        x = Tensor(np.tile(c, (n, 1)))
        y = graph_convolve(random_walk_matrix(g), x, Tensor(np.eye(d)))
        np.testing.assert_allclose(y.data, np.tile(np.maximum(c, 0.0), (n, 1)), atol=1e-12)

    def test_zero_features(self):
        g = two_vertex_graph()
        y = graph_convolve(random_walk_matrix(g), Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 3))))
        np.testing.assert_array_equal(y.data, 0.0)

    def test_gradient_wrt_features_and_weights(self):
        rng = np.random.default_rng(15)
        g = random_hypergraph(rng, n_max=5)
        x = Tensor(rng.normal(size=(g.n_vertices, 4)), requires_grad=True)
        theta = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        probe = rng.normal(size=(g.n_vertices, 4))

        def f():
            return ad.tsum(ad.mul(graph_convolve(random_walk_matrix(g), x, theta), Tensor(probe)))

        assert gradcheck(f, [x, theta]) < 1e-4

    def test_batched_operator_equals_per_timestep_loop(self):
        rng = np.random.default_rng(21)
        ops = rng.uniform(0.0, 1.0, size=(5, 4, 4))  # [T, N, N]
        x = rng.normal(size=(5, 4, 3))
        theta = Tensor(rng.normal(size=(3, 6)))
        batched = graph_convolve(ops, Tensor(x), theta).data
        assert batched.shape == (5, 4, 6)
        for t in range(5):
            np.testing.assert_allclose(batched[t], graph_convolve(ops[t], Tensor(x[t]), theta).data,
                                       rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(batched[t], np.maximum(ops[t] @ x[t] @ theta.data, 0.0),
                                       rtol=1e-13, atol=1e-13)

    def test_batched_gradient_wrt_features_and_weights(self):
        rng = np.random.default_rng(22)
        ops = rng.uniform(0.0, 1.0, size=(3, 4, 4))
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        theta = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        probe = rng.normal(size=(3, 4, 3))

        def f():
            return ad.tsum(ad.mul(graph_convolve(ops, x, theta), Tensor(probe)))

        assert gradcheck(f, [x, theta]) < 1e-4

    def test_misaligned_features_rejected(self):
        with pytest.raises(ad.ShapeError):
            graph_convolve(np.eye(3), Tensor(np.zeros((4, 2))), Tensor(np.ones((2, 2))))


class TestMultiscale:
    def test_shape_three_scales(self):
        rng = np.random.default_rng(16)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=3)
        x = rng.normal(size=(9, 8, 2))
        pres = np.ones((9, 8), dtype=bool)
        out, absent = multiscale_group_features(x, pres, p, "hyper", (2, 3, 4), one_segment(len(x)))
        assert out.shape == (9, 3, 8)
        assert absent.shape == (9, 3) and not absent.any()

    def test_scale_clamping_two_agents(self):
        rng = np.random.default_rng(17)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=3)
        x = rng.normal(size=(2, 8, 2))
        pres = np.ones((2, 8), dtype=bool)
        out, _ = multiscale_group_features(x, pres, p, "hyper", (2, 3, 4), one_segment(len(x)))
        assert out.shape == (2, 1, 8)
        assert effective_scales((2, 3, 4), 2) == [(1, 0)]

    def test_single_agent_zero_feature(self):
        rng = np.random.default_rng(18)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=3)
        x = rng.normal(size=(1, 8, 2))
        pres = np.ones((1, 8), dtype=bool)
        out, absent = multiscale_group_features(x, pres, p, "hyper", (2, 3, 4), one_segment(len(x)))
        assert out.shape == (1, 1, 8)
        assert not absent.any()  # the single agent's one zero token is present
        np.testing.assert_array_equal(out.data, 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=2, requires_grad=False)
        x = rng.normal(size=(6, 8, 2))
        pres = np.ones((6, 8), dtype=bool)
        base = multiscale_group_features(x, pres, p, "hyper", (2, 3), one_segment(len(x)))[0].data
        perm = rng.permutation(6)
        permuted = multiscale_group_features(x[perm], pres[perm], p, "hyper", (2, 3), one_segment(len(x)))[0].data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-8)

    def test_dump_records_edges(self):
        rng = np.random.default_rng(20)
        p = hyper_params(rng, t_in=8, d_emb=8, d_model=8, n_scales=2)
        x = rng.normal(size=(5, 8, 2))
        pres = np.ones((5, 8), dtype=bool)
        with attention.capture() as kept:
            multiscale_group_features(x, pres, p, "hyper", (2, 3), one_segment(len(x)))
        dump = kept["hyper/edges"]
        assert [d["scale"] for d in dump] == [2, 3]
        for d in dump:
            for edge in d["edges"]:
                assert len(edge) >= 2
