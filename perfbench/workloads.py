"""The three benchmark workloads: set-up, one round of timed operations, checks.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns.  A round is a fixed list of operations, so
every run attempts whole rounds and the failed share never depends on the
run length.  ``run_round`` returns one ``(seconds, windows, failed)`` tuple
per operation; ``check`` runs after the timed region and returns a list of
problems, each compared against finite differences, a plain-numpy
recomputation or a property the method must have.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import time

import numpy as np

from crowdcast import autodiff, data
from crowdcast.config import TrainConfig
from crowdcast.model import CrowdForecaster

# The package re-exports the function ``train`` under the submodule's name.
train = importlib.import_module("crowdcast.train")

HERE = os.path.dirname(os.path.abspath(__file__))
EVAL_CHECKPOINT = os.path.join(HERE, "eval-k20.ckpt")

CORPUS_SEED = 7  # the training corpus of the acceptance run
INTERACTING_SEED = 70  # the interacting scenes of the acceptance run
FAULT_SEED = 11  # dense corpus whose windows trigger the _point_errors fault
DENSE_AGENTS = (12, 16)
DENSE_PER_COUNT = 5  # seed-drawn dense windows per agent count per grad-dense round
EPOCHS_PER_ROUND = 2
K = 20

FD_STEP = 1e-6
FD_ATOL = 1e-7
FD_RTOL = 1e-4
PROBED_PREFIXES = ("spatial/", "temporal/", "hyper/", "fusion/", "cvae/dec/", "cvae/post/")

POINT_ERRORS_FAULT = (
    "cvae._point_errors takes sqrt of an exactly-zero distance and its backward divides by "
    "zero: at default init the decoder predicts each agent's last observed position, and "
    "each failing window has an agent whose future returns to that point"
)


def scene_windows(scenes, workdir, stride=1):
    """Write scenes as frame files, read them back, and cut windows per scene."""
    os.makedirs(workdir, exist_ok=True)
    out = []
    for i, scene in enumerate(scenes):
        path = os.path.join(workdir, f"scene{i:03d}.txt")
        data.write_scene(scene, path)
        out.append(data.window_scene(data.parse_scene(path), stride=stride))
    return out


def centered(window):
    """Positions shifted by the centroid of agents present at the last
    observed step, absent slots zero: the frame the model works in."""
    pos, pres, t_in = window.positions, window.presence, window.t_in
    shifted = pos - pos[pres[:, t_in - 1], t_in - 1].mean(axis=0)
    shifted[~pres] = 0.0
    return shifted


def fault_trigger(window):
    """True where the zero-distance sqrt in ``cvae._point_errors`` will fire.

    Recomputed here in plain numpy: a default-init model predicts each
    agent's last observed point for every future step and a zero
    reconstruction of every observed step.
    """
    pres, t_in = window.presence, window.t_in
    shifted = centered(window)
    last = np.array([np.nonzero(row)[0][-1] for row in pres[:, :t_in]])
    anchors = shifted[np.arange(len(shifted)), last]
    back_at_anchor = pres[:, t_in:] & np.all(shifted[:, t_in:] == anchors[:, None], axis=-1)
    obs_at_origin = pres[:, :t_in] & np.all(shifted[:, :t_in] == 0.0, axis=-1)
    return bool(back_at_anchor.any() or obs_at_origin.any())


def gradients_finite(model):
    return all(p.grad is None or np.isfinite(p.grad).all() for p in model.params.values())


def gradient_probe(model, window, rng):
    """Finite differences against ``autodiff.backward`` at a few entries.

    One 2-D weight per stage plus the parameter with the largest gradient;
    in each, the entry with the largest gradient and one random entry.  The
    loss has kinks (ReLU, ``|cross|`` in the angle term) that can fall
    inside the step, and then the central difference averages two slopes:
    the backward value must then match one of the one-sided differences.
    """
    params = model.params
    eps = rng.standard_normal((window.n_agents, model.cfg.d_z))

    def loss():
        with autodiff.no_grad():
            return float(model.training_loss(window, latent_eps=eps)[0].data)

    for p in params.values():
        p.zero_grad()
    autodiff.backward(model.training_loss(window, latent_eps=eps)[0])
    grads = {n: np.zeros(p.size) if p.grad is None else p.grad.reshape(-1).copy() for n, p in params.items()}
    names = []
    for prefix in PROBED_PREFIXES:
        candidates = sorted(n for n, p in params.items() if n.startswith(prefix) and p.ndim == 2)
        if candidates:
            names.append(candidates[int(rng.integers(len(candidates)))])
    names.append(max(sorted(grads), key=lambda n: np.abs(grads[n]).max()))

    problems = []
    base = loss()
    for name in names:
        flat = params[name].data.reshape(-1)
        for i in sorted({int(np.argmax(np.abs(grads[name]))), int(rng.integers(flat.size))}):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = loss()
            flat[i] = orig - FD_STEP
            minus = loss()
            flat[i] = orig
            an = grads[name][i]
            diffs = ((plus - minus) / (2 * FD_STEP), (plus - base) / FD_STEP, (base - minus) / FD_STEP)
            if not any(abs(d - an) <= FD_ATOL + FD_RTOL * max(abs(d), abs(an)) for d in diffs):
                problems.append(f"gradient of {name}[{i}]: backward {an:.9g}, finite differences "
                                f"central {diffs[0]:.9g}, right {diffs[1]:.9g}, left {diffs[2]:.9g}")
    return problems


def param_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


class TrainSmall:
    """``train.train`` on the seed-7 64-window corpus; one operation is one batch step.

    A round is one ``train`` call of two epochs with ``out_dir`` set, as
    ``crowdcast train`` runs it, so checkpoints and the report are written.
    Round r trains with seed ``1000 * --seed + r`` (initial parameters,
    batch order, jitter and latent draws), so a run's batch steps span many
    batch compositions rather than the 16 of one seed.
    """

    name = "train-small"

    def __init__(self, seed):
        self.seed = seed
        self.rounds_run = 0
        self.first = None  # (training seed, parameter digest, epoch losses) of the first round
        self.model = None  # model of the last finished round

    def setup(self, workdir):
        scenes = data.synth_generate(CORPUS_SEED, 12, agents_range=(3, 6))
        self.windows = [w for ws in scene_windows(scenes[:11], workdir) for w in ws][:64]
        self.cfg = TrainConfig(epochs=EPOCHS_PER_ROUND)
        self.out_dir = os.path.join(workdir, "run")
        os.makedirs(self.out_dir, exist_ok=True)

    def agents(self):
        return [w.n_agents for w in self.windows]

    def run_round(self):
        seed = 1000 * self.seed + self.rounds_run
        self.rounds_run += 1
        ops, self.model, report = self._train(seed)
        if self.first is None and self.model is not None:
            self.first = (seed, param_digest(self.model), [e["total"] for e in report["epochs"]])
        return ops

    def _train(self, seed):
        """One ``train`` call; returns (ops, model or None on abort, report)."""
        cfg = dataclasses.replace(self.cfg, seed=seed)
        n, bs = len(self.windows), cfg.batch_size
        sizes = [min(bs, n - s) for s in range(0, n, bs)] * cfg.epochs
        stamps = []
        adam = train.Adam

        class StampedAdam(adam):
            def step(self):
                super().step()
                stamps.append(time.perf_counter())

        train.Adam = StampedAdam
        start = time.perf_counter()
        try:
            model, report = train.train(cfg, self.windows, out_dir=self.out_dir)
        except (ArithmeticError, train.TrainingAbort):
            model, report = None, None
        finally:
            train.Adam = adam
        ends = [start] + stamps
        ops = [(b - a, size, False) for a, b, size in zip(ends, stamps, sizes)]
        if model is None:
            ops.append((time.perf_counter() - ends[-1], sizes[len(stamps)], True))
        return ops, model, report

    def check(self, rng):
        if self.model is None or self.first is None:
            return ["training aborted"]
        seed, digest, losses = self.first
        problems = []
        _, again, _ = self._train(seed)
        if again is None or param_digest(again) != digest:
            problems.append(f"two training runs from seed {seed} ended with different parameters")
        if not np.all(np.isfinite(losses)):
            problems.append(f"non-finite epoch loss: {losses}")
        elif not losses[-1] < losses[0]:
            problems.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
        window, _ = data.normalize_window(self.windows[0])
        return problems + gradient_probe(self.model, window, rng)


class GradDense:
    """``training_loss`` + ``autodiff.backward`` on one dense window at default init.

    A round is the 24 windows of the dense seed-11 corpus, 11 of which
    trigger the ``_point_errors`` fault and fail on every seed, followed by
    five windows for each agent count from 12 to 16, cut from scenes drawn
    from ``--seed``, so every seed has the same agent counts.
    Seed-drawn windows that would trigger the fault are left out, so the
    failed share is the same on every seed.  No optimizer step is taken.
    """

    name = "grad-dense"

    def __init__(self, seed):
        self.seed = seed
        self.failures = None  # indices of failed windows in the first round
        self.stable = True

    def setup(self, workdir):
        fixed = data.synth_generate(FAULT_SEED, 4, agents_range=DENSE_AGENTS)
        windows = [w for ws in scene_windows(fixed, os.path.join(workdir, "fixed")) for w in ws]
        for n in range(DENSE_AGENTS[0], DENSE_AGENTS[1] + 1):
            windows += self._clean_windows(n, os.path.join(workdir, f"n{n}"))
        self.windows = [data.normalize_window(w)[0] for w in windows]
        self.triggers = [fault_trigger(w) for w in windows]
        cfg = TrainConfig(seed=self.seed)
        self.model = CrowdForecaster(cfg, seed=cfg.seed)

    def _clean_windows(self, n_agents, workdir):
        """The first windows without the fault trigger from ``n_agents``-agent
        scenes drawn from the seed."""
        n_scenes = 6
        while True:
            scenes = data.synth_generate([self.seed, n_agents], n_scenes, agents_range=(n_agents, n_agents))
            clean = [w for ws in scene_windows(scenes, workdir) for w in ws if not fault_trigger(w)]
            if len(clean) >= DENSE_PER_COUNT:
                return clean[:DENSE_PER_COUNT]
            n_scenes *= 2

    def agents(self):
        return [w.n_agents for w in self.windows]

    def run_round(self):
        ops, failed_at = [], []
        for wi, window in enumerate(self.windows):
            rng = np.random.default_rng([self.seed, wi])
            for p in self.model.params.values():
                p.zero_grad()
            start = time.perf_counter()
            try:
                loss, _ = self.model.training_loss(window, rng=rng)
                autodiff.backward(loss)
                failed = False
            except ArithmeticError:
                failed = True
            elapsed = time.perf_counter() - start
            failed = failed or not gradients_finite(self.model)
            if failed:
                failed_at.append(wi)
            ops.append((elapsed, 1, failed))
        if self.failures is None:
            self.failures = failed_at
        elif self.failures != failed_at:
            self.stable = False
        return ops

    def check(self, rng):
        problems = [] if self.stable else ["the set of failing windows differs between rounds"]
        problems += [f"window {wi} failed without the _point_errors trigger"
                    for wi in self.failures if not self.triggers[wi]]
        clean = [wi for wi in range(len(self.windows)) if wi not in self.failures]
        if not clean:
            return problems + ["no window with finite gradients to probe"]
        return problems + gradient_probe(self.model, self.windows[clean[0]], rng)

    def failure_note(self):
        if not self.failures:
            return None
        return f"{len(self.failures)} of {len(self.windows)} windows per round fail: {POINT_ERRORS_FAULT}"


class EvalK20:
    """One window of ``train.evaluate`` at K=20 with a model loaded as ``crowdcast eval`` loads it.

    A round is the seed-7 held-out scene's windows plus the seed-70
    interacting windows of the acceptance run; ``--seed`` is the sampling
    seed, and each window gets its own stream.
    """

    name = "eval-k20"

    def __init__(self, seed):
        self.seed = seed
        self.first = None  # (minADE, minFDE) per window from the first round
        self.stable = True

    def setup(self, workdir):
        held_out = data.synth_generate(CORPUS_SEED, 12, agents_range=(3, 6))[11]
        inter = data.synth_generate(INTERACTING_SEED, 3, agents_range=(3, 6), kinds=("avoid", "group"))
        self.windows = scene_windows([held_out], os.path.join(workdir, "held_out"))[0]
        self.windows += [w for ws in scene_windows(inter, os.path.join(workdir, "inter"), stride=4) for w in ws]
        cfg = TrainConfig()
        self.model = CrowdForecaster(cfg, seed=cfg.seed).load(EVAL_CHECKPOINT)

    def agents(self):
        return [w.n_agents for w in self.windows]

    def window_seed(self, wi):
        return self.seed * len(self.windows) + wi

    def run_round(self):
        ops, results = [], []
        for wi, window in enumerate(self.windows):
            start = time.perf_counter()
            try:
                _, result = train.evaluate(self.model, [window], K, self.window_seed(wi))
                failed = not np.all(np.isfinite(result))
            except ArithmeticError:
                result, failed = None, True
            ops.append((time.perf_counter() - start, 1, failed))
            results.append(result)
        if self.first is None:
            self.first = results
        elif results != self.first:
            self.stable = False
        return ops

    def check(self, rng):
        problems = [] if self.stable else ["evaluate results differ between rounds"]
        for wi, window in enumerate(self.windows):
            norm, _ = data.normalize_window(window)
            seed = self.window_seed(wi)
            samples = self.model.sample_futures(norm, K, np.random.default_rng([seed, 0]))
            single = self.model.sample_futures(norm, 1, np.random.default_rng([seed, 0]))
            ade, fde = best_of_k_numpy(samples, window)
            got = self.first[wi]
            if got is None or not np.allclose(got, (ade, fde), rtol=1e-9, atol=1e-12):
                problems.append(f"window {wi}: evaluate gave {got}, numpy recomputation {(ade, fde)}")
            if not np.array_equal(samples[0], single[0]):
                problems.append(f"window {wi}: sample 0 at K={K} differs from the K=1 sample")
            if not np.ptp(samples, axis=0).max() > 0:
                problems.append(f"window {wi}: all {K} samples are equal")
            _, (ade1, _) = train.evaluate(self.model, [window], 1, seed)
            if got is not None and not got[0] <= ade1 + 1e-12:
                problems.append(f"window {wi}: minADE{K} {got[0]} above minADE1 {ade1}")
        return problems


def best_of_k_numpy(samples, window):
    """minADE / minFDE of [K, N, T_o, 2] samples against the window's future."""
    gt = centered(window)[:, window.t_in:]
    fut = window.presence[:, window.t_in:]
    err = np.sqrt(((samples - gt[None]) ** 2).sum(axis=-1))  # [K, N, T_o]
    ade = err[:, fut].mean(axis=1)
    agents = np.nonzero(fut.any(axis=1))[0]
    last = np.array([np.nonzero(fut[i])[0][-1] for i in agents])
    fde = err[:, agents, last].mean(axis=1)
    return float(ade.min()), float(fde.min())


WORKLOADS = {w.name: w for w in (TrainSmall, GradDense, EvalK20)}
