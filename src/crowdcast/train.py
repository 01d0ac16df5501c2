"""Training loop, evaluation protocol, and the constant-velocity baseline."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, replace

import numpy as np

from . import autodiff as ad
from .cvae import MetricError, best_of_k
from .data import last_present, normalize_window, pack_windows
from .model import CrowdForecaster
from .optim import Adam, decayed_lr


class TrainingAbort(RuntimeError):
    """Loss or a gradient went non-finite; the last good checkpoint is retained."""


def gaussian_jitter(window, rng, std):
    """Observation noise for augmentation; futures are never touched."""
    if std <= 0:
        return window
    noisy = window.positions.copy()
    noisy[:, : window.t_in] += rng.normal(0.0, std, size=(window.n_agents, window.t_in, 2))
    noisy[~window.presence] = 0.0
    return replace(window, positions=noisy, presence=window.presence.copy(), agent_ids=list(window.agent_ids))


def random_rotation(window, rng):
    """Rotate the whole window about the origin by an angle drawn uniformly
    from [0, 2*pi); augmentation.

    Observations and future turn together, so every step length and every
    distance between agents is kept.  After ``normalize_window`` the origin
    is the observed centroid.  Absent slots stay zero.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    turned = window.positions @ np.array([[c, s], [-s, c]])
    return replace(window, positions=turned, presence=window.presence.copy(), agent_ids=list(window.agent_ids))


def train(cfg, windows, out_dir, log=None):
    """Fit a model on the given windows; returns (model, report dict).

    Deterministic for a fixed (config, windows) pair.  Each batch step
    packs its augmented windows into one window (``pack_windows``) and
    runs one forward and one backward over it.  Checkpoints go to
    ``out_dir`` ("best.ckpt" at the lowest-loss epoch, "final.ckpt" at the
    end); a non-finite loss or gradient raises ``TrainingAbort``, whose
    message names the last good checkpoint if one was written.  Gradients are dropped after each step, so the
    returned model holds none.
    """
    if not windows:
        raise ValueError("training needs at least one window")
    normalized = [normalize_window(w)[0] for w in windows]
    model = CrowdForecaster(cfg, seed=cfg.seed)
    opt = Adam(model.params, lr=cfg.learning_rate)
    rng = np.random.default_rng([cfg.seed, 101])

    epochs_report = []
    best_loss, best_path = np.inf, None  # the path once a best checkpoint is written
    t0 = time.perf_counter()
    # every op output, the loss and every gradient are checked, and the
    # abort names the fault, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            opt.lr = decayed_lr(cfg.learning_rate, epoch, cfg.decay_factor, cfg.decay_every)
            order = rng.permutation(len(normalized))
            sums, count = {}, 0
            for start in range(0, len(order), cfg.batch_size):
                batch = [normalized[i] for i in order[start : start + cfg.batch_size]]
                augmented, eps = [], []
                for window in batch:  # per window, in turn: jitter, rotation, latent draws
                    augmented.append(random_rotation(gaussian_jitter(window, rng, cfg.noise_std), rng))
                    eps.append(rng.standard_normal((window.n_agents, cfg.d_z)))
                try:
                    total, parts = model.training_loss(pack_windows(augmented), latent_eps=np.concatenate(eps))
                except ArithmeticError as exc:
                    _abort(best_path, exc)
                if not np.isfinite(total.data).all():
                    _abort(best_path, "batch loss non-finite")
                ad.backward(total)
                bad = next((name for name in sorted(model.params) if not _finite_grad(model.params[name])), None)
                if bad is not None:
                    _abort(best_path, f"non-finite gradient of parameter {bad!r}")
                opt.step()
                opt.zero_grad()  # no gradient outlives its step
                for key, value in parts.items():  # parts are means over the batch's windows
                    sums[key] = sums.get(key, 0.0) + value * len(batch)
                count += len(batch)
            epoch_parts = {k: v / count for k, v in sums.items()}
            epochs_report.append({"epoch": epoch, "lr": opt.lr, **epoch_parts})
            if log is not None and (epoch % log == 0 or epoch == cfg.epochs - 1):
                print(f"epoch {epoch:4d}  lr {opt.lr:.2e}  loss {epoch_parts['total']:.4f}")
            if epoch_parts["total"] < best_loss:
                best_loss = epoch_parts["total"]
                best_path = f"{out_dir}/best.ckpt"
                model.save(best_path)

    report = {
        "epochs": epochs_report,
        "best_loss": best_loss,
        "wall_clock_s": time.perf_counter() - t0,
        "config": asdict(cfg),
    }
    model.save(f"{out_dir}/final.ckpt")
    with open(f"{out_dir}/report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    return model, report


def _finite_grad(param):
    return param.grad is None or bool(np.isfinite(param.grad).all())


def _abort(best_path, reason):
    where = f"; last good checkpoint retained at {best_path}" if best_path else ""
    raise TrainingAbort(f"training aborted: {reason}{where}")


def evaluate(model, windows, k, seed, fold=""):
    """Best-of-K metrics per window plus the fold mean; deterministic in seed.

    ``model`` needs a ``sample_futures(window, k, rng)`` method returning
    [K, N, T_o, 2]; samples are drawn from per-window RNG streams, so the
    first sample agrees across different K.  No window raises
    ``MetricError``: a fold mean over no window is undefined.
    """
    if not windows:
        raise MetricError("evaluate needs at least one window; minADE/minFDE of none are undefined")
    rows = []
    for wi, window in enumerate(windows):
        norm, _ = normalize_window(window)
        rng = np.random.default_rng([seed, wi])
        samples = model.sample_futures(norm, k, rng)
        gt, pres = norm.future()
        min_ade, min_fde = best_of_k(samples, gt, pres)
        rows.append({"fold": fold, "window": wi, f"minADE{k}": min_ade, f"minFDE{k}": min_fde})
    mean_ade = float(np.mean([r[f"minADE{k}"] for r in rows]))
    mean_fde = float(np.mean([r[f"minFDE{k}"] for r in rows]))
    return rows, (mean_ade, mean_fde)


def baseline_constant_velocity(window):
    """Extrapolate each agent's last observed velocity; [N, T_o, 2].

    The velocity is taken between the last two present observed steps; an
    agent observed at one step only stays where it was.
    """
    obs_pos, obs_pres = window.observed()
    n, t_in = obs_pres.shape
    rows = np.arange(n)
    last = last_present(obs_pres)
    prev = last_present(obs_pres & (np.arange(t_in) < last[:, None]))
    anchor = obs_pos[rows, last]
    moving = prev >= 0
    vel = (anchor - obs_pos[rows, prev]) / np.where(moving, last - prev, 1)[:, None]
    vel = np.where(moving[:, None], vel, 0.0)
    steps = np.arange(1, window.t_out + 1) + (t_in - 1 - last)[:, None]  # [N, T_o]
    return anchor[:, None, :] + steps[:, :, None] * vel[:, None, :]


class ConstantVelocityModel:
    """Baseline exposing the evaluation interface (all K samples equal)."""

    def sample_futures(self, window, k, rng):
        pred = baseline_constant_velocity(window)
        return np.repeat(pred[None], k, axis=0)


def write_metrics_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_summary_csv(path, fold_rows, k):
    import csv  # here, off the set-up path of the other commands

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fold", f"minADE{k}", f"minFDE{k}"])
        writer.writerows([fold, repr(ade), repr(fde)] for fold, ade, fde in fold_rows)
