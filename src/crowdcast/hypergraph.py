"""Multiscale crowd hypergraphs and random-walk spectral convolution.

Group structure is discovered per segment (``attention.SegmentBlocks``)
of a window: agent tracks are embedded, covariance-whitened distances
turn into a heat-kernel similarity matrix, and a KNN sweep links each
agent with its K most similar peers into a hyperedge (duplicates
merged).  Features then mix through the
symmetric-normalized random-walk operator of each hypergraph.  The
embedding is ``transformer.track_embedding`` (shared with the CVAE head)
and the convolution ``transformer.graph_convolve`` (shared with the
spatial GCN residual).

Structure discovery (distances, similarity, KNN) is plain numpy and does
not participate in differentiation; the convolution path does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from . import autodiff as ad
from .autodiff import Tensor
from .transformer import ffn_forward, graph_convolve, track_embedding


class HypergraphError(ValueError):
    """Construction contract violated (degenerate scale, isolated vertex)."""


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

    @property
    def n_edges(self):
        return self.incidence.shape[1]

    def edges(self):
        """Hyperedges as sorted vertex-index tuples."""
        return [tuple(np.nonzero(self.incidence[:, e])[0]) for e in range(self.n_edges)]


def mahalanobis_matrix(embeddings):
    """Pairwise covariance-whitened distances, [N, N] symmetric, zero diagonal.

    The covariance is the sample covariance of the embeddings, regularized
    with eps = 1e-3 * trace/dim on the diagonal.  It is taken in the
    agents' Gram space: with X the centered embeddings, G = X X^T and
    c = (N-1) * eps, the whitened inner products are
    K = (N-1) (G + cI)^-1 G, and the squared distances are
    K_ii + K_jj - 2 K_ij.  K is symmetrized first, so identical embeddings
    are exactly 0 apart.  For 64-dim embeddings of up to 360 agents it
    agrees with a Cholesky whitening of the [dim, dim] covariance to 1e-12
    of the largest distance, with an N x N solve in place of it.

    K has the eigenvalues (N-1) l / (l + c) of G's eigenvalues l.  With
    N <= dim + 1 agents, G has N - 1 nonzero eigenvalues, and where each
    is far above c, K is close to N - 1 times the centering projection:
    every off-diagonal distance is then close to sqrt(2 (N-1)), however
    the embeddings lie.  On the eval-k20 benchmark windows with its
    checkpoint they lie in 1.99996-1.99998 at N = 3 (sqrt 4 = 2),
    2.44931-2.44946 at N = 4 (sqrt 6 = 2.44949) and 3.16079-3.16210 at
    N = 6 (sqrt 10 = 3.16228); only a pair of near-equal embeddings (an
    eigenvalue near c) comes closer, as 2.68768 at N = 5 (sqrt 8 =
    2.82843).  The KNN hyperedges of such a window are ranked by what
    the ridge leaves, not by how far apart the embeddings are.
    """
    q = np.asarray(embeddings, dtype=np.float64)
    n, d = q.shape
    if n < 2:
        raise HypergraphError(f"need >= 2 embeddings, got {n}")
    x = q - q.mean(axis=0)
    # sums in one order for every entry, so equal rows give equal columns
    # (a BLAS ``x @ x.T`` can round them apart)
    gram = np.einsum("ik,jk->ij", x, x)
    eps = 1e-3 * np.trace(gram) / ((n - 1) * d) + 1e-12
    k = np.linalg.solve(gram + (n - 1) * eps * np.eye(n), gram)  # K / (n-1)
    k = k + k.T  # 2 K / (n-1), symmetric
    half = 0.5 * np.diag(k)
    d2 = half[:, None] + half[None, :]
    d2 -= k
    d2 *= n - 1
    return np.sqrt(np.maximum(d2, 0.0))


def similarity_matrix(distances):
    """Heat-kernel similarity [N, N], diagonal 1: S(i,j) = exp(-Dis(i,j)^2 / rho^2),
    with bandwidth rho the mean off-diagonal distance (all ones if rho is 0)."""
    dis = np.asarray(distances, dtype=np.float64)
    n = dis.shape[0]
    iu = np.triu_indices(n, k=1)
    rho = dis[iu].mean() if iu[0].size else 0.0
    if rho == 0.0:
        return np.ones_like(dis)
    s = np.exp(-(dis**2) / rho**2)
    np.fill_diagonal(s, 1.0)
    return s


def build_hyperedges_knn(similarity, k):
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
    """trace(F^T Delta F): smoothness of indicator-like columns (diagnostic)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    delta = hypergraph_laplacian(g)
    return float(np.trace(f.T @ delta @ f))


def effective_scales(configured, n):
    """Clamp configured KNN scales to N-1 and deduplicate, keeping order.

    Returns (scale, parameter index) pairs; the parameter index is the
    position of the first configured scale that mapped to that K.
    """
    first = {}  # effective K -> first parameter index, in configured order
    for idx, k in enumerate(configured):
        first.setdefault(min(int(k), n - 1), idx)
    return [(k, idx) for k, idx in first.items() if k >= 1]


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


def multiscale_group_features(x_obs, presence_obs, params, prefix, scales, blocks):
    """Group-wise features [N, P, d_model] across KNN scales, and their
    [N, P] bool absent mask, True where an agent's segment has no token.

    Per segment (each block of ``blocks``, the window's
    ``attention.SegmentBlocks``) and scale: embed, whiten-distance,
    similarity, KNN hypergraph.  Per scale parameter index the segments'
    walk operators form one block-diagonal operator
    (``SegmentBlocks.dense``) for two stacked convolutions.  Scale outputs
    stack on axis 1, one column per parameter index that some segment
    uses, and mix through a tokenwise MLP.  A token its segment lacks is
    zero and absent, and the single token of a segment with fewer than 2
    agents is zero but present.  A plain window has no absent token.  An
    open ``attention.capture`` keeps each hypergraph's scale and
    hyperedges, as window agent indices, under ``hyper/edges``.
    """
    n, seg = blocks.rows_total, blocks.seg
    columns, uses, absent = _scale_layout(scales, blocks.counts)
    w_out = params[f"{prefix}/mlp/w2"]
    if not columns:
        return Tensor(np.zeros((n, 1, w_out.shape[1])), dtype=w_out.dtype), absent[seg]

    q = track_embedding(params, f"{prefix}/embed", x_obs, presence_obs)
    members = [rows[~pad] for rows, pad in zip(blocks.rows, blocks.pad)]
    sims = [similarity_matrix(mahalanobis_matrix(q.data[m])) if len(m) >= 2 else None for m in members]

    per_scale = []
    for idx in columns:
        op = np.zeros((blocks.count, blocks.size, blocks.size))
        for s, (m, sim, use) in enumerate(zip(members, sims, uses)):
            if idx not in use:
                continue
            g = build_hyperedges_knn(sim, use[idx])
            if attention._captured is not None:
                attention._captured.setdefault("hyper/edges", []).append(
                    {"scale": use[idx], "edges": [[int(m[v]) for v in e] for e in g.edges()]})
            op[s, : len(m), : len(m)] = random_walk_matrix(g)
        op = blocks.dense(op)
        h1 = graph_convolve(op, q, params[f"{prefix}/conv{idx}/theta1"])
        per_scale.append(graph_convolve(op, h1, params[f"{prefix}/conv{idx}/theta2"]))

    tokens = ffn_forward(params, f"{prefix}/mlp", ad.stack(per_scale, axis=1))  # [N, P, d_model]
    keep = ~absent & (blocks.counts >= 2)[:, None]
    return ad.mul(tokens, Tensor(keep[seg][:, :, None], dtype=w_out.dtype)), absent[seg]
