"""Multiscale crowd hypergraphs and random-walk spectral convolution.

Group structure is discovered per window (per segment of a packed
window; see ``data.pack_windows``): agent tracks are embedded,
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
    return ad.relu(ad.linear(Tensor(flat, dtype=weight.dtype), weight, bias))


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
    # row by row: most similar first, equal similarities in index order
    order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), -s), axis=-1)
    peers = order[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, :k]
    members = np.sort(np.column_stack([np.arange(n), peers]), axis=1)
    edges = list(dict.fromkeys(map(tuple, members.tolist())))  # duplicates merged, first kept
    H = np.zeros((n, len(edges)))
    H[np.array(edges), np.arange(len(edges))[:, None]] = 1.0
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


def hypergraph_convolve(operator, x, theta):
    """First-order spectral convolution: ReLU(O X Theta).

    operator: [N, N] walk operator, one hypergraph's ``random_walk_matrix``
    or a block-diagonal union of several.
    """
    if x.shape[0] != operator.shape[0]:
        raise ad.ShapeError(f"features {x.shape} do not align with {operator.shape[0]} vertices")
    o = Tensor(operator, dtype=theta.dtype)
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


def _scale_layout(scales, counts):
    """Scale-token layout for segments of ``counts`` agents each.

    Returns (columns, uses, absent): the parameter indices that some
    segment uses, ascending, one token column each; per segment a
    {parameter index: K} dict; and [segments, P] bool, True where a
    segment has no token in a column.  A segment with fewer than 2 agents
    uses no scale and has one token, in the first column.
    """
    uses = [{idx: k for k, idx in effective_scales(scales, c)} if c >= 2 else {} for c in counts]
    columns = sorted(set().union(*uses))
    absent = np.ones((len(counts), max(len(columns), 1)), dtype=bool)
    for row, use in zip(absent, uses):
        row[: len(columns)] = [idx not in use for idx in columns]
    absent[counts < 2, 0] = False
    return columns, uses, absent


def scale_token_absent(segment, scales):
    """[N, P] bool: True where an agent's segment has no token in column p.

    The columns are those of ``multiscale_group_features`` for the same
    ``segment`` and ``scales``.  A plain window has no absent token.
    """
    segment = np.asarray(segment)
    return _scale_layout(scales, np.bincount(segment, minlength=1))[2][segment]


def multiscale_group_features(x_obs, presence_obs, params, prefix, scales, dump=None, segment=None):
    """Group-wise features [N, P, d_model] across KNN scales.

    Per segment (``TrajectoryWindow.segment``; default one segment) and
    scale: embed, whiten-distance, similarity, KNN hypergraph.  Per scale
    parameter index the segments' walk operators form one block-diagonal
    operator for two stacked convolutions.  Scale outputs stack on axis 1,
    one column per parameter index that some segment uses, and mix
    through a tokenwise MLP.  A token its segment lacks
    (``scale_token_absent``) is zero, and so is the single token of a
    segment with fewer than 2 agents.
    """
    n = x_obs.shape[0]
    segment = np.zeros(n, dtype=np.intp) if segment is None else np.asarray(segment)
    counts = np.bincount(segment, minlength=1)
    columns, uses, absent = _scale_layout(scales, counts)
    w_out = params[f"{prefix}/mlp/w2"]
    if not columns:
        return Tensor(np.zeros((n, 1, w_out.shape[1])), dtype=w_out.dtype)

    q = embed_trajectories(x_obs, presence_obs, params[f"{prefix}/embed/w"], params[f"{prefix}/embed/b"])
    members = [np.flatnonzero(segment == s) for s in range(len(counts))]
    sims = [similarity_matrix(mahalanobis_matrix(q.data[m])) if len(m) >= 2 else None for m in members]

    per_scale = []
    for idx in columns:
        op = np.zeros((n, n))
        for m, sim, use in zip(members, sims, uses):
            if idx not in use:
                continue
            g = build_hyperedges_knn(sim, use[idx])
            if dump is not None:
                dump.append({"scale": use[idx], "edges": [[int(m[v]) for v in e] for e in g.edges()]})
            op[np.ix_(m, m)] = random_walk_matrix(g)
        h1 = hypergraph_convolve(op, q, params[f"{prefix}/conv{idx}/theta1"])
        per_scale.append(hypergraph_convolve(op, h1, params[f"{prefix}/conv{idx}/theta2"]))

    tokens = ffn_forward(params, f"{prefix}/mlp", ad.stack(per_scale, axis=1))  # [N, P, d_model]
    keep = ~absent & (counts >= 2)[:, None]
    return ad.mul(tokens, Tensor(keep[segment][:, :, None], dtype=w_out.dtype))
