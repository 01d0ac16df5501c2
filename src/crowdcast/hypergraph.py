"""Multiscale crowd hypergraphs and random-walk spectral convolution.

Group structure is discovered per window: agent tracks are embedded,
covariance-whitened distances turn into a heat-kernel similarity matrix,
and a KNN sweep links each agent with its K most similar peers into a
hyperedge (duplicates merged).  Features then mix through the
symmetric-normalized random-walk operator of each hypergraph.

Structure discovery (distances, similarity, KNN) is plain numpy and does
not participate in differentiation; the convolution path does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .transformer import ffn_forward


class HypergraphError(ValueError):
    """Construction contract violated (degenerate scale, isolated vertex)."""


@dataclass
class Hypergraph:
    """Incidence structure for one KNN scale with diagonal weights/degrees."""

    incidence: np.ndarray  # H in {0,1}^[N, M]
    edge_weights: np.ndarray  # w(e) > 0, [M]
    scale: int
    vertex_degrees: np.ndarray = None  # d(v) = sum_e w(e) H(v,e)
    edge_degrees: np.ndarray = None  # d(e) = sum_v H(v,e)

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
        self.vertex_degrees = H @ w
        self.edge_degrees = H.sum(axis=0)

    @property
    def n_vertices(self):
        return self.incidence.shape[0]

    @property
    def n_edges(self):
        return self.incidence.shape[1]

    def edges(self):
        """Hyperedges as sorted vertex-index tuples."""
        return [tuple(np.nonzero(self.incidence[:, e])[0]) for e in range(self.n_edges)]


@dataclass
class SimilarityMatrix:
    """Heat-kernel similarity over embedding distances, diagonal 1."""

    values: np.ndarray  # [N, N], entries in (0, 1]
    bandwidth: float  # mean off-diagonal feature distance


def embed_trajectories(x_obs, presence_obs, weight, bias):
    """Per-agent embedding: ReLU affine over the flattened observed track.

    Absent slots are zero-filled before flattening, so the embedding is a
    function of the visible track only.
    """
    n = x_obs.shape[0]
    if n < 2:
        raise HypergraphError(f"trajectory embedding needs N >= 2 agents, got {n}")
    flat = (x_obs * presence_obs[:, :, None]).reshape(n, -1)
    return ad.relu(ad.add(ad.matmul(Tensor(flat, dtype=weight.dtype), weight), bias))


def mahalanobis_matrix(embeddings, covariance=None):
    """Pairwise covariance-whitened distances, [N, N] symmetric, zero diagonal.

    The covariance defaults to the sample covariance of the embeddings,
    regularized with 1e-3 * trace/dim on the diagonal; pass an explicit
    ``covariance`` (e.g. identity) to override.
    """
    q = np.asarray(embeddings, dtype=np.float64)
    n, d = q.shape
    if n < 2:
        raise HypergraphError(f"need >= 2 embeddings, got {n}")
    if covariance is None:
        cov = np.cov(q, rowvar=False)
        cov = np.atleast_2d(cov)
        eps = 1e-3 * np.trace(cov) / d + 1e-12
        covariance = cov + eps * np.eye(d)
    chol = np.linalg.cholesky(covariance)
    white = np.linalg.solve(chol, q.T).T  # rows are whitened embeddings
    diff = white[:, None, :] - white[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    d2 = np.maximum(d2, 0.0)
    np.fill_diagonal(d2, 0.0)
    dis = np.sqrt(d2)
    return 0.5 * (dis + dis.T)


def similarity_matrix(distances):
    """S(i,j) = exp(-Dis(i,j)^2 / rho^2), rho the mean off-diagonal distance."""
    dis = np.asarray(distances, dtype=np.float64)
    n = dis.shape[0]
    iu = np.triu_indices(n, k=1)
    rho = dis[iu].mean() if iu[0].size else 0.0
    if rho == 0.0:
        return SimilarityMatrix(values=np.ones_like(dis), bandwidth=0.0)
    s = np.exp(-(dis**2) / rho**2)
    np.fill_diagonal(s, 1.0)
    return SimilarityMatrix(values=s, bandwidth=float(rho))


def build_hyperedges_knn(similarity, k):
    """One hyperedge per vertex: itself plus its K most similar peers.

    Ties break toward the lower agent index; duplicate vertex sets merge,
    so M <= N.  Edge weights are identity.
    """
    s = similarity.values if isinstance(similarity, SimilarityMatrix) else np.asarray(similarity)
    n = s.shape[0]
    if not 1 <= k <= n - 1:
        raise HypergraphError(f"KNN scale must satisfy 1 <= K <= N-1, got K={k}, N={n}")
    edges = []
    seen = set()
    for v in range(n):
        others = [j for j in range(n) if j != v]
        others.sort(key=lambda j: (-s[v, j], j))
        edge = tuple(sorted([v] + others[:k]))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    H = np.zeros((n, len(edges)))
    for e, members in enumerate(edges):
        H[list(members), e] = 1.0
    return Hypergraph(incidence=H, edge_weights=np.ones(len(edges)), scale=k)


def transition_matrix(g):
    """Row-stochastic random walk P = M_v^-1 H W M_e^-1 H^T."""
    if np.any(g.vertex_degrees <= 0):
        raise HypergraphError("zero vertex degree")
    H, w = g.incidence, g.edge_weights
    return (H * (w / g.edge_degrees)) @ H.T / g.vertex_degrees[:, None]


def random_walk_matrix(g):
    """Symmetric walk O = M_v^-1/2 H W M_e^-1 H^T M_v^-1/2 (PSD)."""
    if np.any(g.vertex_degrees <= 0):
        raise HypergraphError("zero vertex degree")
    H, w = g.incidence, g.edge_weights
    inv_sqrt = 1.0 / np.sqrt(g.vertex_degrees)
    core = (H * (w / g.edge_degrees)) @ H.T
    return inv_sqrt[:, None] * core * inv_sqrt[None, :]


def hypergraph_laplacian(g):
    """Delta = I - O; symmetric PSD with M_v^1/2 1 in its null space."""
    o = random_walk_matrix(g)
    return np.eye(g.n_vertices) - o


def partition_cost(g, f):
    """trace(F^T Delta F): smoothness of indicator-like columns (diagnostic)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    delta = hypergraph_laplacian(g)
    return float(np.trace(f.T @ delta @ f))


def hypergraph_convolve(g, x, theta):
    """First-order spectral convolution: ReLU(O X Theta)."""
    if x.shape[0] != g.n_vertices:
        raise ad.ShapeError(f"features {x.shape} do not align with {g.n_vertices} vertices")
    o = Tensor(random_walk_matrix(g), dtype=theta.dtype)
    return ad.relu(ad.matmul(ad.matmul(o, x), theta))


def effective_scales(configured, n):
    """Clamp configured KNN scales to N-1 and deduplicate, keeping order.

    Returns (scale, parameter index) pairs; the parameter index is the
    position of the first configured scale that mapped to that K.
    """
    out = []
    seen = set()
    for idx, k in enumerate(configured):
        k_eff = min(int(k), n - 1)
        if k_eff >= 1 and k_eff not in seen:
            seen.add(k_eff)
            out.append((k_eff, idx))
    return out


def multiscale_group_features(x_obs, presence_obs, params, prefix, scales, dump=None):
    """Group-wise features [N, H_eff, d_model] across KNN scales.

    Per scale: embed, whiten-distance, similarity, KNN hypergraph, two
    stacked convolutions; scale outputs stack on axis 1 and mix through a
    tokenwise MLP.  Degenerate crowds (N < 2) yield a zero feature with a
    single scale slot.
    """
    n = x_obs.shape[0]
    if n < 2:
        w_out = params[f"{prefix}/mlp/w2"]
        return Tensor(np.zeros((n, 1, w_out.shape[1])), dtype=w_out.dtype)

    q = embed_trajectories(x_obs, presence_obs, params[f"{prefix}/embed/w"], params[f"{prefix}/embed/b"])
    dis = mahalanobis_matrix(q.data)
    sim = similarity_matrix(dis)

    per_scale = []
    for k, idx in effective_scales(scales, n):
        g = build_hyperedges_knn(sim, k)
        if dump is not None:
            dump.append({"scale": k, "edges": [list(map(int, e)) for e in g.edges()]})
        h1 = hypergraph_convolve(g, q, params[f"{prefix}/conv{idx}/theta1"])
        h2 = hypergraph_convolve(g, h1, params[f"{prefix}/conv{idx}/theta2"])
        per_scale.append(h2)

    return ffn_forward(params, f"{prefix}/mlp", ad.stack(per_scale, axis=1))  # [N, H_eff, d_model]
