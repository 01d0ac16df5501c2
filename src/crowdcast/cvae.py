"""CVAE heads over the fused features, training losses, and ADE/FDE metrics.

The posterior MLP sees the observed-track embedding, a future-track
embedding, and the fused crowd feature; the decoder emits per-step
displacement increments whose cumulative sum is anchored at each agent's
last observed position, so predictions are continuous with the history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .transformer import ffn_forward


class ContractError(ValueError):
    """Operation called outside its mode contract."""


class MetricError(ValueError):
    """Metric undefined for the given presence pattern."""


class LossComponentError(ArithmeticError):
    """A named loss component went non-finite; training must abort."""


@dataclass
class LatentPosterior:
    mu: Tensor  # [N, d_z]
    log_sigma: Tensor  # [N, d_z]


def observed_embedding(params, x_obs, presence_obs):
    """Shared ReLU-affine embedding of the flattened observed track."""
    n = x_obs.shape[0]
    flat = (np.asarray(x_obs) * np.asarray(presence_obs, dtype=bool)[:, :, None]).reshape(n, -1)
    w = params["cvae/obs/w"]
    return ad.relu(ad.add(ad.matmul(Tensor(flat, dtype=w.dtype), w), params["cvae/obs/b"]))


def encode_posterior(params, x_obs, presence_obs, x_fut, y_m, d_z):
    """Diagonal-Gaussian posterior per agent, plus the observation recon.

    Training-mode only: raises ContractError without a ground-truth
    future.  Returns (LatentPosterior, reconstruction [N, T_i*2]).
    """
    if x_fut is None:
        raise ContractError("posterior encoding needs the ground-truth future (training mode)")
    n = x_obs.shape[0]
    w = params["cvae/fut/w"]
    obs_e = observed_embedding(params, x_obs, presence_obs)
    fut_flat = np.asarray(x_fut).reshape(n, -1)
    fut_e = ad.relu(ad.add(ad.matmul(Tensor(fut_flat, dtype=w.dtype), w), params["cvae/fut/b"]))
    joint = ad.concat([obs_e, fut_e, y_m], axis=1)
    trunk = ad.relu(ad.add(ad.matmul(joint, params["cvae/post/w1"]), params["cvae/post/b1"]))
    stats = ad.add(ad.matmul(trunk, params["cvae/post/w2"]), params["cvae/post/b2"])
    mu = stats[:, :d_z]
    log_sigma = stats[:, d_z:]
    recon = ad.add(ad.matmul(trunk, params["cvae/recon/w"]), params["cvae/recon/b"])
    return LatentPosterior(mu=mu, log_sigma=log_sigma), recon


def reparameterize(posterior, eps):
    """z = mu + sigma * eps, differentiable through mu and log_sigma."""
    sigma = ad.exp(posterior.log_sigma)
    return ad.add(posterior.mu, ad.mul(sigma, Tensor(eps, dtype=sigma.dtype)))


def sample_prior(rng, n, d_z, sigma_prior=1.0, dtype=None):
    """Latent draw [n, d_z] from the prior N(0, sigma_prior^2 I)."""
    return Tensor(sigma_prior * rng.standard_normal((n, d_z)), dtype=dtype)


def decode_trajectories(params, z, obs_emb, y_m, anchors, t_out):
    """Absolute future positions [N, t_out, 2] from latent + conditioning.

    The MLP emits displacement increments; their cumulative sum starts at
    each agent's last observed position.
    """
    n = z.shape[0]
    inc = ffn_forward(params, "cvae/dec", ad.concat([z, obs_emb, y_m], axis=1))
    inc = ad.reshape(inc, (n, t_out, 2))
    tri = Tensor(np.tril(np.ones((t_out, t_out))), dtype=inc.dtype)
    cum = ad.matmul(tri, inc)
    anchor_t = Tensor(np.asarray(anchors).reshape(n, 1, 2), dtype=inc.dtype)
    return ad.add(cum, anchor_t)


def _point_errors(a, b):
    """Euclidean error per point between [N, T, 2] tensors.

    An exactly-zero error back-propagates the zero subgradient, so a
    prediction that hits its target (or a zero-filled absent slot) keeps
    every gradient finite.
    """
    return ad.norm(ad.sub(a, b), axis=-1)


ANGLE_GT_GUARD = 1e-6  # skip pairs whose ground-truth vector is degenerate


def _pair_angles(points, idx_a, idx_b):
    """Angle between position vectors at timestep pairs; [N, P].

    atan2(|cross|, dot) rather than arccos of the normalized dot product:
    its gradient stays bounded for nearly parallel vectors.
    """
    va = points[:, idx_a, :]
    vb = points[:, idx_b, :]
    ax, ay = va[:, :, 0], va[:, :, 1]
    bx, by = vb[:, :, 0], vb[:, :, 1]
    cross = ad.sub(ad.mul(ax, by), ad.mul(ay, bx))
    dot = ad.add(ad.mul(ax, bx), ad.mul(ay, by))
    return ad.atan2(ad.absval(cross), dot)


def _segment_mean_weights(mask, segment, n_segments):
    """Weights over a masked [N, ...] array whose weighted sum is the mean
    over segments of each segment's mean over its masked entries.

    A segment without a masked entry adds 0 to that mean.
    """
    per_agent = mask.reshape(len(segment), -1).sum(axis=1)
    totals = np.bincount(segment, weights=per_agent, minlength=n_segments)
    scale = 1.0 / (n_segments * np.maximum(totals, 1))
    return mask * scale[segment].reshape((-1,) + (1,) * (mask.ndim - 1))


def loss_total(pred, gt, presence_fut, posterior, recon, x_obs, presence_obs, kappas, sigma_prior=1.0,
               segment=None):
    """Three-term objective; returns (total Tensor, float components).

    kappas: (k1, k2, k3, k4) weighting mean L2 distance, KL to the prior,
    the angle mismatch over ordered timestep pairs, and the observation
    reconstruction.  segment: optional [N] scene number per agent; each
    term is taken per segment, as on that segment's window alone, and
    averaged over segments.  Any non-finite component aborts with its name.
    """
    k1, k2, k3, k4 = kappas
    gt = np.asarray(gt, dtype=np.float64)
    presence_fut = np.asarray(presence_fut, dtype=bool)
    presence_obs = np.asarray(presence_obs, dtype=bool)
    n, t_out = gt.shape[0], gt.shape[1]
    dtype = pred.dtype
    segment = np.zeros(n, dtype=np.intp) if segment is None else np.asarray(segment)
    n_segments = int(segment.max()) + 1
    per_agent = _segment_mean_weights(np.ones(n), segment, n_segments)  # 1 / (segments * agents)

    # distance term: mean over present future slots
    errs = _point_errors(pred, Tensor(gt, dtype=dtype))
    dist = ad.tsum(ad.mul(errs, Tensor(_segment_mean_weights(presence_fut, segment, n_segments), dtype=dtype)))

    # KL(N(mu, sigma^2) || N(0, sigma_prior^2 I)), summed over dims, mean over agents
    mu, log_sigma = posterior.mu, posterior.log_sigma
    sp2 = float(sigma_prior) ** 2
    var = ad.exp(ad.mul(log_sigma, Tensor(2.0, dtype=dtype)))
    per_dim = ad.add(
        ad.sub(Tensor(np.full(log_sigma.shape, 0.5 * np.log(sp2)), dtype=dtype), log_sigma),
        ad.mul(ad.add(var, ad.mul(mu, mu)), Tensor(0.5 / sp2, dtype=dtype)),
    )
    per_dim = ad.sub(per_dim, Tensor(np.full(log_sigma.shape, 0.5), dtype=dtype))
    kl = ad.tsum(ad.mul(ad.tsum(per_dim, axis=1), Tensor(per_agent, dtype=dtype)))

    # angle term over ordered timestep pairs, summed and divided by the agent count
    idx_a, idx_b = np.triu_indices(t_out, k=1)
    gt_norms = np.linalg.norm(gt, axis=-1)  # [N, T]
    valid = (
        presence_fut[:, idx_a]
        & presence_fut[:, idx_b]
        & (gt_norms[:, idx_a] >= ANGLE_GT_GUARD)
        & (gt_norms[:, idx_b] >= ANGLE_GT_GUARD)
    )
    if valid.any():
        ang_pred = _pair_angles(pred, idx_a, idx_b)
        gt_t = Tensor(gt, dtype=dtype)
        ang_gt = _pair_angles(gt_t, idx_a, idx_b)
        diff = ad.absval(ad.sub(ang_pred, ang_gt))
        ang = ad.tsum(ad.mul(diff, Tensor(valid * per_agent[:, None], dtype=dtype)))
    else:
        ang = Tensor(np.zeros(()), dtype=dtype)

    # observation reconstruction from the encoder trunk: mean over present observed slots
    recon_pts = ad.reshape(recon, (n, -1, 2))
    obs_errs = _point_errors(recon_pts, Tensor(np.asarray(x_obs), dtype=dtype))
    enc = ad.tsum(ad.mul(obs_errs, Tensor(_segment_mean_weights(presence_obs, segment, n_segments), dtype=dtype)))

    parts = {}
    for name, term, weight in (
        ("distance", dist, k1),
        ("kl", kl, k2),
        ("angle", ang, k3),
        ("reconstruction", enc, k4),
    ):
        value = float(term.data)
        if not np.isfinite(value):
            raise LossComponentError(f"loss component {name!r} is non-finite")
        parts[name] = weight * value

    total = ad.add(
        ad.add(ad.mul(dist, Tensor(k1, dtype=dtype)), ad.mul(kl, Tensor(k2, dtype=dtype))),
        ad.add(ad.mul(ang, Tensor(k3, dtype=dtype)), ad.mul(enc, Tensor(k4, dtype=dtype))),
    )
    parts["total"] = float(total.data)
    return total, parts


# -- metrics ---------------------------------------------------------------


def ade_fde(pred, gt, presence):
    """Average / final displacement error over present future slots.

    FDE averages each agent's error at its last present future timestep;
    agents with no present future step are excluded from both metrics.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    presence = np.asarray(presence, dtype=bool)
    if not presence.any():
        raise MetricError("no present future steps; ADE/FDE undefined")
    errs = np.linalg.norm(pred - gt, axis=-1)
    ade = float(errs[presence].mean())
    finals = []
    for i in range(pred.shape[0]):
        idx = np.nonzero(presence[i])[0]
        if idx.size:
            finals.append(errs[i, idx[-1]])
    return ade, float(np.mean(finals))


def best_of_k(samples, gt, presence, joint_fde=False):
    """(minADE_K, minFDE_K) over sampled futures.

    Minima are taken independently unless ``joint_fde``, which scores FDE
    on the ADE-minimizing sample.
    """
    samples = np.asarray(samples, dtype=np.float64)
    ades, fdes = [], []
    for k in range(samples.shape[0]):
        a, f = ade_fde(samples[k], gt, presence)
        ades.append(a)
        fdes.append(f)
    ades, fdes = np.array(ades), np.array(fdes)
    if joint_fde:
        best = int(np.argmin(ades))
        return float(ades[best]), float(fdes[best])
    return float(ades.min()), float(fdes.min())
