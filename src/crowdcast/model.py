"""Full forecasting model: branch encoders, fusion, CVAE heads, parameters.

Parameters live in a flat name -> Tensor dict so the optimizer, the
checkpoint archive, and gradient checks all see one namespace.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import cvae
from .attention import SegmentBlocks
from .autodiff import Tensor
from .checkpoint import CheckpointError, load_archive, save_archive, verify_names_shapes
from .data import agent_relative_positions
from .fusion import fuse
from .hypergraph import multiscale_group_features
from .transformer import spatial_forward, temporal_forward


def _xavier(rng, n_in, n_out):
    s = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-s, s, size=(n_in, n_out))


class _Builder:
    def __init__(self, rng, dtype):
        self.rng = rng
        self.dtype = dtype
        self.p = {}

    def weight(self, name, n_in, n_out, zero=False):
        w = np.zeros((n_in, n_out)) if zero else _xavier(self.rng, n_in, n_out)
        self.p[name] = Tensor(w, requires_grad=True, dtype=self.dtype)

    def vector(self, name, n, value=0.0):
        self.p[name] = Tensor(np.full(n, value, dtype=np.float64), requires_grad=True, dtype=self.dtype)

    def linear(self, prefix, n_in, n_out, zero=False, suffix=("w", "b")):
        self.weight(f"{prefix}/{suffix[0]}", n_in, n_out, zero=zero)
        self.vector(f"{prefix}/{suffix[1]}", n_out)

    def ln(self, prefix, d):
        self.vector(f"{prefix}/g", d, value=1.0)
        self.vector(f"{prefix}/b", d)

    def mha(self, prefix, d):
        for gate in ("wq", "wk", "wv", "wo"):
            self.weight(f"{prefix}/{gate}", d, d)
        for gate in ("bq", "bk", "bv", "bo"):
            self.vector(f"{prefix}/{gate}", d)

    def ffn(self, prefix, d, hidden):
        self.linear(f"{prefix}/ffn", d, hidden, suffix=("w1", "b1"))
        self.linear(f"{prefix}/ffn", hidden, d, suffix=("w2", "b2"))

    def block(self, prefix, d, hidden, with_gcn=False):
        """Parameters of ``transformer.encoder_block``."""
        self.ln(f"{prefix}/ln1", d)
        self.mha(f"{prefix}/attn", d)
        if with_gcn:
            self.weight(f"{prefix}/gcn/w", d, d)
        self.ln(f"{prefix}/ln2", d)
        self.ffn(prefix, d, hidden)

    def encoder_stack(self, prefix, cfg, with_gcn):
        d = cfg.d_model
        self.linear(f"{prefix}/embed", 2, d)
        self.vector(f"{prefix}/mask/w", 1)
        self.vector(f"{prefix}/mask/b", 1)
        for layer in range(cfg.layers):
            self.block(f"{prefix}/l{layer}", d, cfg.ffn_hidden, with_gcn)
        self.ln(f"{prefix}/ln_out", d)


def init_params(cfg, seed):
    """Deterministic parameter dict for the given config and seed."""
    b = _Builder(np.random.default_rng(seed), cfg.dtype)
    d = cfg.d_model

    b.encoder_stack("spatial", cfg, with_gcn=True)
    b.encoder_stack("temporal", cfg, with_gcn=False)

    b.linear("hyper/embed", 2 * cfg.t_in, cfg.d_emb)
    for idx in range(len(cfg.scales)):
        b.weight(f"hyper/conv{idx}/theta1", cfg.d_emb, d)
        b.weight(f"hyper/conv{idx}/theta2", d, d)
    b.linear("hyper/mlp", d, d, suffix=("w1", "b1"))
    b.linear("hyper/mlp", d, d, suffix=("w2", "b2"))

    for name in ("cross_s", "cross_t", "cross_h"):
        base = f"fusion/{name}"
        b.ln(f"{base}/ln_q", d)
        b.ln(f"{base}/ln_kv", d)
        b.mha(f"{base}/attn", d)
        b.ln(f"{base}/ln2", d)
        b.ffn(base, d, cfg.ffn_hidden)
    b.block("fusion/self", d, cfg.ffn_hidden)
    b.ln("fusion/ln_out", d)

    b.linear("cvae/obs", 2 * cfg.t_in, d)
    b.linear("cvae/fut", 2 * cfg.t_out, d)
    b.linear("cvae/post", 3 * d, cfg.cvae_hidden, suffix=("w1", "b1"))
    b.linear("cvae/post", cfg.cvae_hidden, 2 * cfg.d_z, zero=True, suffix=("w2", "b2"))
    b.linear("cvae/recon", cfg.cvae_hidden, 2 * cfg.t_in, zero=True)
    b.linear("cvae/dec", cfg.d_z + 2 * d, cfg.cvae_hidden, suffix=("w1", "b1"))
    b.linear("cvae/dec", cfg.cvae_hidden, 2 * cfg.t_out, zero=True, suffix=("w2", "b2"))
    return b.p


class CrowdForecaster:
    """Forecasting pipeline over normalized trajectory windows."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        self.params = init_params(cfg, seed)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        save_archive(path, {name: t.data for name, t in self.params.items()})

    def load(self, path):
        """Copy an archive's float32 records into the parameters' own arrays.

        Names and shapes are checked first, so a load that fails changes no
        parameter.  Widening float32 to float64 is exact.
        """
        loaded = load_archive(path)
        try:
            verify_names_shapes(loaded, {name: t.shape for name, t in self.params.items()})
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        for name, t in self.params.items():
            np.copyto(t.data, loaded[name])
        return self

    # -- forward paths -------------------------------------------------------

    def features(self, window):
        """Fused crowd feature, observation embedding, relative tracks, anchors.

        Every encoder reads each agent's track relative to its own last
        observed position (``agent_relative_positions``), so features do
        not depend on where the window sits in the scene.  Only the spatial
        attention mask and the GCN adjacency read the scene positions, for
        the real distances between agents.  One ``SegmentBlocks`` owns the
        layout of the agents for the spatial and hypergraph branches, so
        agents of different segments (a packed window) never meet.
        Returns (y_m, obs_emb, relative tracks [N, T_i + T_o, 2], anchors).
        """
        cfg, blocks = self.cfg, SegmentBlocks(window.segment)
        x_obs, pres_obs = window.observed()
        rel, anchors = agent_relative_positions(window)
        rel_obs = rel[:, : window.t_in]
        y_s = spatial_forward(self.params, cfg, rel_obs, pres_obs, blocks, scene_positions=x_obs)
        y_t = temporal_forward(self.params, cfg, rel_obs, pres_obs)
        y_h, h_absent = multiscale_group_features(rel_obs, pres_obs, self.params, "hyper", cfg.scales, blocks)
        y_m = fuse(self.params, cfg, y_s, y_t, y_h, h_absent=h_absent)
        obs_emb = cvae.observed_embedding(self.params, rel_obs, pres_obs)
        return y_m, obs_emb, rel, anchors

    def training_loss(self, window, latent_eps=None, rng=None):
        """Loss on one normalized window; draws the latent from ``rng``
        unless an explicit ``latent_eps`` is given (gradient checks).

        The posterior and the reconstruction target use the relative
        tracks; the decoded future is scored in the window's frame.  On a
        packed window (``data.pack_windows``) the loss is the mean over
        its segments of each one's loss.
        """
        cfg = self.cfg
        t_in = window.t_in
        pres_obs = window.presence[:, :t_in]
        x_fut, pres_fut = window.future()
        y_m, obs_emb, rel, anchors = self.features(window)
        rel_obs, rel_fut = rel[:, :t_in], rel[:, t_in:]
        posterior, recon = cvae.encode_posterior(self.params, obs_emb, rel_fut, pres_fut, y_m, cfg.d_z)
        if latent_eps is None:
            latent_eps = rng.standard_normal((window.n_agents, cfg.d_z))
        z = cvae.reparameterize(posterior, latent_eps)
        pred = cvae.decode_trajectories(self.params, z, obs_emb, y_m, anchors, cfg.t_out)
        return cvae.loss_total(
            pred, x_fut, pres_fut, posterior, recon, rel_obs, pres_obs,
            (cfg.kappa1, cfg.kappa2, cfg.kappa3, cfg.kappa4), cfg.sigma_prior, window.segment,
        )

    def sample_futures(self, window, k, rng):
        """K prior-sampled futures [K, N, T_o, 2] for a normalized window.

        One prior draw [K, N, d_z] and one decode over the leading K axis;
        sample i is the one the i-th of K sequential draws would give.
        """
        cfg = self.cfg
        with ad.no_grad():
            y_m, obs_emb, _, anchors = self.features(window)
            z = cvae.sample_prior(rng, k, window.n_agents, cfg.d_z, cfg.sigma_prior, cfg.dtype)
            pred = cvae.decode_trajectories(self.params, z, obs_emb, y_m, anchors, cfg.t_out)
        return np.asarray(pred.data, dtype=np.float64)
