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
from .data import last_present
from .transformer import ffn_forward, track_embedding


class MetricError(ValueError):
    """Metric undefined for the given presence pattern."""


class LossComponentError(ArithmeticError):
    """A named loss component went non-finite; training must abort."""


@dataclass
class LatentPosterior:
    mu: Tensor  # [N, d_z]
    log_sigma: Tensor  # [N, d_z]


def observed_embedding(params, x_obs, presence_obs):
    """Observed-track embedding that the posterior and the decoder share."""
    return track_embedding(params, "cvae/obs", x_obs, presence_obs)


def encode_posterior(params, obs_emb, x_fut, presence_fut, y_m, d_z):
    """Diagonal-Gaussian posterior per agent, plus the observation recon.

    obs_emb: [N, d] the ``observed_embedding`` that the decoder also
    reads; x_fut: [N, T_o, 2] ground-truth future; presence_fut: [N, T_o]
    bool.  Returns (LatentPosterior, reconstruction [N, T_i*2]).
    """
    fut_e = track_embedding(params, "cvae/fut", x_fut, presence_fut)
    joint = ad.concat([obs_emb, fut_e, y_m], axis=1)
    trunk = ad.linear(joint, params["cvae/post/w1"], params["cvae/post/b1"], relu=True)
    stats = ad.linear(trunk, params["cvae/post/w2"], params["cvae/post/b2"])
    mu = stats[:, :d_z]
    log_sigma = stats[:, d_z:]
    recon = ad.linear(trunk, params["cvae/recon/w"], params["cvae/recon/b"])
    return LatentPosterior(mu=mu, log_sigma=log_sigma), recon


def reparameterize(posterior, eps):
    """z = mu + sigma * eps, differentiable through mu and log_sigma."""
    sigma = ad.exp(posterior.log_sigma)
    return ad.add(posterior.mu, ad.mul(sigma, Tensor(eps, dtype=sigma.dtype)))


def sample_prior(rng, k, n, d_z, sigma_prior, dtype):
    """k latent draws [k, n, d_z] from the prior N(0, sigma_prior^2 I): the
    same stream as k draws of [n, d_z] one after another."""
    return Tensor(sigma_prior * rng.standard_normal((k, n, d_z)), dtype=dtype)


def decode_trajectories(params, z, obs_emb, y_m, anchors, t_out):
    """Absolute future positions [..., N, t_out, 2] from latent + conditioning.

    z: [..., N, d_z]; any leading axes (the K samples) share the
    conditioning obs_emb, y_m [N, d_model] and anchors [N, 2].  The MLP
    emits displacement increments; their cumulative sum starts at each
    agent's last observed position.
    """
    lead, n = z.shape[:-2], z.shape[-2]
    cond = [obs_emb, y_m]
    if lead:
        cond = [ad.broadcast_to(c, lead + c.shape) for c in cond]
    inc = ffn_forward(params, "cvae/dec", ad.concat([z] + cond, axis=-1))
    inc = ad.reshape(inc, lead + (n, t_out, 2))
    cum = ad.matmul(np.tril(np.ones((t_out, t_out), dtype=inc.dtype)), inc)
    anchor_t = Tensor(np.asarray(anchors).reshape(n, 1, 2), dtype=inc.dtype)
    return ad.add(cum, anchor_t)


def _point_errors(a, b):
    """Euclidean error per point between [N, T, 2] tensors.

    An exactly-zero error back-propagates the zero subgradient, so a
    prediction that hits its target (or a zero-filled absent slot) keeps
    every gradient finite.
    """
    return ad.norm(ad.sub(a, b))


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


def loss_total(pred, gt, presence_fut, posterior, recon, x_obs, presence_obs, kappas, sigma_prior, segment):
    """Four-term objective; returns (total Tensor, float components).

    kappas: (k1, k2, k3, k4) weighting mean L2 distance, KL to the prior,
    the angle mismatch over ordered timestep pairs, and the observation
    reconstruction.  sigma_prior: the prior's standard deviation.
    segment: [N] scene number per agent; each term is taken per segment,
    as on that segment's window alone, and averaged over segments.  Any
    non-finite component aborts with its name.
    """
    k1, k2, k3, k4 = kappas
    gt = np.asarray(gt, dtype=np.float64)
    presence_fut = np.asarray(presence_fut, dtype=bool)
    presence_obs = np.asarray(presence_obs, dtype=bool)
    n, t_out = gt.shape[0], gt.shape[1]
    dtype = pred.dtype
    segment = np.asarray(segment)
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


def best_of_k(samples, gt, presence):
    """(minADE_K, minFDE_K) over sampled futures [K, N, T, 2], scored in one pass.

    ADE is the mean error over present future slots; FDE the mean over
    agents of the error at each one's last present future step, leaving
    out agents with no present future step.  Each minimum takes the best
    sample for the whole window, not each agent's best sample: a joint
    best-of-K (minJADE/minJFDE in Weng et al. 2023, arXiv:2305.06292).
    The two minima over the K samples are taken independently.  K=1
    gives one future's ADE and FDE.
    """
    ades, fdes = _sample_errors(samples, gt, presence)
    return float(ades.min()), float(fdes.min())


def _sample_errors(samples, gt, presence):
    """ADE and FDE [K] of each of K sampled futures [K, N, T, 2]."""
    samples = np.asarray(samples, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    presence = np.asarray(presence, dtype=bool)
    if not presence.any():
        raise MetricError("no present future steps; ADE/FDE undefined")
    errs = np.linalg.norm(samples - gt, axis=-1)  # [K, N, T]
    agents = np.nonzero(presence.any(axis=1))[0]
    return errs[:, presence].mean(axis=1), errs[:, agents, last_present(presence)[agents]].mean(axis=1)
