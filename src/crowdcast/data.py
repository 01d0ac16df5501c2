"""Frame-file parsing, window cutting, packing, and synthetic crowd scenes.

Scenes are whitespace-separated rows of ``frame_id agent_id x y`` (extra
columns ignored).  Windows hold ``t_in`` observed plus ``t_out`` future
timesteps for every agent present at >= 2 observed steps; absent slots are
zero-filled and flagged in the presence mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

T_IN_DEFAULT = 8
T_OUT_DEFAULT = 12

ARENA = 20.0  # synthetic scenes live in a 20 m x 20 m box
GROUP_RADIUS = 0.7  # max member offset from a synthetic group's center
FRAME_INTERVAL = 0.4  # seconds between synthetic frames: the avoiders' time step


class ParseError(ValueError):
    """Malformed scene file."""


@dataclass
class Scene:
    """Raw trajectory records: (frame_id, agent_id, x, y) rows."""

    frames: list  # list of (frame_id, agent_id, x, y)
    groups: list = None  # synthetic-only: agent-id lists sharing a goal


@dataclass
class TrajectoryWindow:
    """One sample: N agents over t_in observed + t_out future steps.

    ``segment`` [N] numbers the scene each agent belongs to.  Agents of
    different segments never interact, so a window packed from several
    (``pack_windows``) is their disjoint union; a plain window is one
    segment, all zeros.
    """

    positions: np.ndarray  # [N, t_in + t_out, 2]
    presence: np.ndarray  # [N, t_in + t_out] bool
    agent_ids: list
    origin_frame: int
    t_in: int = T_IN_DEFAULT
    t_out: int = T_OUT_DEFAULT
    segment: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.segment is None:
            self.segment = np.zeros(self.positions.shape[0], dtype=np.intp)

    @property
    def n_agents(self):
        return self.positions.shape[0]

    def observed(self):
        return self.positions[:, : self.t_in], self.presence[:, : self.t_in]

    def future(self):
        return self.positions[:, self.t_in :], self.presence[:, self.t_in :]


def parse_scene(path):
    """Parse a UTF-8 frame file; rejects malformed rows and duplicate
    (frame, agent).

    Rows come back sorted by (frame, agent).  The file is read and split
    once and checked as arrays; only a file that fails a check is scanned
    again, line by line, to report its first offending line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    split = [line.split() for line in lines]
    rows = [cols for cols in split if cols]
    if not rows:
        raise ParseError(f"{path}: empty scene")
    if min(map(len, rows)) >= 4:
        try:
            frame, agent, x, y = (np.fromiter(map(float, col), float, len(rows)) for col in list(zip(*rows))[:4])
        except ValueError:
            pass
        else:
            ids_ok = np.isfinite(frame) & np.isfinite(agent) & (frame == np.floor(frame)) & (agent == np.floor(agent))
            if ids_ok.all() and np.isfinite(x).all() and np.isfinite(y).all():
                # integral floats order and compare as the ints they hold
                order = np.lexsort((agent, frame))
                frame, agent = frame[order], agent[order]
                if not np.any((frame[1:] == frame[:-1]) & (agent[1:] == agent[:-1])):
                    frames = list(zip(map(int, frame.tolist()), map(int, agent.tolist()),
                                      x[order].tolist(), y[order].tolist()))
                    return Scene(frames=frames)
    raise _first_fault(path, split)


def _first_fault(path, split):
    """The ParseError for the first offending line of a file split into columns.

    Called only for a file that ``parse_scene``'s array checks rejected,
    so some line fails one of these per-line checks.
    """
    seen = set()
    for lineno, cols in enumerate(split, start=1):
        if not cols:
            continue
        if len(cols) < 4:
            return ParseError(f"{path}:{lineno}: expected >= 4 columns, got {len(cols)}")
        try:
            frame_f, agent_f, x, y = map(float, cols[:4])
        except ValueError:
            return ParseError(f"{path}:{lineno}: non-numeric field")
        if not (np.isfinite(frame_f) and np.isfinite(agent_f)) or frame_f != int(frame_f) or agent_f != int(agent_f):
            return ParseError(f"{path}:{lineno}: frame/agent ids must be integers")
        if not (np.isfinite(x) and np.isfinite(y)):
            return ParseError(f"{path}:{lineno}: non-finite position")
        key = (int(frame_f), int(agent_f))
        if key in seen:
            return ParseError(f"{path}:{lineno}: duplicate (frame, agent) pair {key}")
        seen.add(key)


def write_scene(scene, path):
    """Write a scene in the frame-file format; round-trips through parse."""
    rows = sorted(scene.frames, key=lambda r: (r[0], r[1]))
    with open(path, "w") as fh:
        fh.write("".join([f"{frame_id} {agent_id} {x!r} {y!r}\n" for frame_id, agent_id, x, y in rows]))


def window_scene(scene, stride=1, t_in=T_IN_DEFAULT, t_out=T_OUT_DEFAULT):
    """Cut sliding windows of t_in + t_out consecutive distinct frames.

    Agents present for fewer than 2 observed steps are dropped from that
    window, and a window in which no kept agent has a future step is
    skipped, since nothing in it can be scored.  Returns an empty list
    when the scene is too short.  Where a hand-built scene repeats a
    (frame, agent) row, the last one wins.

    The rows are sorted once; each window then costs time and memory in
    its own rows and its [N, t_in + t_out] arrays, never in the scene's
    frames times its agents.
    """
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    span = t_in + t_out
    if not scene.frames:
        return []
    frame_col, agent_col, x_col, y_col = zip(*scene.frames)
    frame, agent = np.array(frame_col), np.array(agent_col)
    order = np.lexsort((agent, frame))  # stable: repeated rows keep their list order
    frame, agent = frame[order], agent[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (frame[1:] != frame[:-1]) | (agent[1:] != agent[:-1])
    if not last.all():
        order, frame, agent = order[last], frame[last], agent[last]
    xy = np.array([x_col, y_col], dtype=float).T[order]
    first = np.ones(len(frame), dtype=bool)
    first[1:] = frame[1:] != frame[:-1]
    frame_ids = frame[first].tolist()
    if len(frame_ids) < span:
        return []
    step = np.cumsum(first) - 1  # each row's index among the scene's distinct frames
    bounds = np.searchsorted(step, np.arange(len(frame_ids) + 1))

    windows = []
    for start in range(0, len(frame_ids) - span + 1, stride):
        lo, mid, hi = bounds[start], bounds[start + t_in], bounds[start + span]
        seen = np.sort(agent[lo:mid])
        again = seen[1:][seen[1:] == seen[:-1]]  # agents with >= 2 observed rows, repeated
        new = np.ones(len(again), dtype=bool)
        new[1:] = again[1:] != again[:-1]
        agents = again[new]
        if not agents.size:
            continue
        slot = np.searchsorted(agents, agent[lo:hi])
        kept = agents[np.minimum(slot, agents.size - 1)] == agent[lo:hi]
        t = step[lo:hi][kept] - start
        if not np.any(t >= t_in):
            continue
        cell = slot[kept] * span + t
        positions = np.zeros((agents.size, span, 2))
        presence = np.zeros((agents.size, span), dtype=bool)
        positions.reshape(-1, 2)[cell] = xy[lo:hi][kept]
        presence.reshape(-1)[cell] = True
        windows.append(
            TrajectoryWindow(
                positions=positions,
                presence=presence,
                agent_ids=agents.tolist(),
                origin_frame=frame_ids[start],
                t_in=t_in,
                t_out=t_out,
            )
        )
    return windows


def normalize_window(window):
    """Translate so the observed centroid at the last observed frame is 0.

    Falls back to the centroid of each agent's last present observed
    position when nobody is present at that frame.  Returns the shifted
    window and the offset needed to undo the shift.
    """
    t_anchor = window.t_in - 1
    present = window.presence[:, t_anchor]
    if present.any():
        offset = window.positions[present, t_anchor].mean(axis=0)
    else:
        anchors = last_observed_positions(window)
        offset = anchors.mean(axis=0)
    positions = window.positions - offset
    positions[~window.presence] = 0.0
    shifted = replace(window, positions=positions, presence=window.presence.copy(),
                      agent_ids=list(window.agent_ids), segment=window.segment.copy())
    return shifted, offset


def pack_windows(windows):
    """Disjoint union of windows along the agent axis, as one window.

    Agents keep their order; each window's segments are numbered on from
    the previous window's, so a packed window keeps its own.  The windows
    must already be normalized and augmented: packing moves no position.
    ``origin_frame`` is the first window's.
    """
    if not windows:
        raise ValueError("pack_windows needs at least one window")
    first = windows[0]
    if any((w.t_in, w.t_out) != (first.t_in, first.t_out) for w in windows):
        raise ValueError("packed windows must share t_in and t_out")
    starts = np.cumsum([0] + [int(w.segment.max()) + 1 for w in windows[:-1]])  # each window's first segment
    return TrajectoryWindow(
        positions=np.concatenate([w.positions for w in windows], axis=0),
        presence=np.concatenate([w.presence for w in windows], axis=0),
        agent_ids=[a for w in windows for a in w.agent_ids],
        origin_frame=first.origin_frame,
        t_in=first.t_in,
        t_out=first.t_out,
        segment=np.concatenate([w.segment + start for w, start in zip(windows, starts)]),
    )


def last_present(presence):
    """Index of each row's last True along the last axis; -1 for a row with none."""
    presence = np.asarray(presence, dtype=bool)
    last = presence.shape[-1] - 1 - np.argmax(presence[..., ::-1], axis=-1)
    return np.where(presence.any(axis=-1), last, -1)


def last_observed_positions(window):
    """Per-agent position at the last present observed timestep, [N, 2]."""
    obs_pos, obs_pres = window.observed()
    return obs_pos[np.arange(window.n_agents), last_present(obs_pres)]


def agent_relative_positions(window):
    """Each agent's track minus its own last observed position, [N, T, 2].

    Covers observed and future steps; absent slots stay zero.  Returns the
    relative tracks and the anchors [N, 2] they are relative to.
    """
    anchors = last_observed_positions(window)
    relative = window.positions - anchors[:, None, :]
    relative[~window.presence] = 0.0
    return relative, anchors


# -- synthetic corpus ------------------------------------------------------


def _arena_point(rng, margin=2.0):
    return rng.uniform(margin, ARENA - margin, size=2)


def _cv_tracks(rng, n_frames):
    """Exactly linear motion from a random start to a random goal."""
    start = _arena_point(rng)
    goal = _arena_point(rng)
    ts = np.arange(n_frames)[:, None] / (n_frames - 1)
    return start + ts * (goal - start)


def _avoider_draws(rng, n_agents):
    """Starts, goals [n, 2] and speeds [n, 1] of a group of avoiding walkers."""
    starts = np.stack([_arena_point(rng) for _ in range(n_agents)])
    goals = np.stack([_arena_point(rng) for _ in range(n_agents)])
    speed = rng.uniform(0.8, 1.4, size=(n_agents, 1))
    return starts, goals, speed


def _avoider_tracks(draws, n_frames, dt):
    """Goal-directed walkers with pairwise exponential repulsion within each group.

    ``draws`` holds one ``_avoider_draws`` result per group.  All groups
    step together, padded to the largest; a walker sums its partners'
    pushes in index order, so each group's tracks are those of simulating
    it alone.  Returns one [n, n_frames, 2] array per group.
    """
    sizes = [len(starts) for starts, _, _ in draws]
    g, m = len(draws), max(sizes)
    starts, goals, speed = np.zeros((g, m, 2)), np.zeros((g, m, 2)), np.zeros((g, m, 1))
    member = np.zeros((g, m), dtype=bool)
    for k, (n, (s, goal, v)) in enumerate(zip(sizes, draws)):
        starts[k, :n], goals[k, :n], speed[k, :n], member[k, :n] = s, goal, v, True
    apart = ~(member[:, :, None] & member[:, None, :] & ~np.eye(m, dtype=bool))
    pos = starts
    out = np.zeros((g, m, n_frames, 2))
    out[:, :, 0] = pos
    for t in range(1, n_frames):
        to_goal = goals - pos
        dist_goal = np.sqrt((to_goal * to_goal).sum(axis=-1, keepdims=True))
        v_des = speed * to_goal / np.maximum(dist_goal, 1e-9)
        delta = pos[:, :, None] - pos[:, None, :]  # [g, i, j, 2]: walker i minus walker j
        d = np.sqrt((delta * delta).sum(axis=-1))
        terms = 1.5 * np.exp(-d / 0.8)[..., None] * delta / np.maximum(d, 1e-9)[..., None]
        terms[apart | (d > 4.0)] = 0.0
        push = terms[:, :, 0]
        for j in range(1, m):
            push = push + terms[:, :, j]
        pos = np.minimum(np.maximum(pos + dt * (v_des + push), 0.5), ARENA - 0.5)
        out[:, :, t] = pos
    return [out[k, :n] for k, n in enumerate(sizes)]


def _group_tracks(rng, n_agents, n_frames):
    """Members share a start/goal line with fixed offsets and small jitter."""
    center_start = _arena_point(rng, margin=3.0)
    center_goal = _arena_point(rng, margin=3.0)
    ts = np.arange(n_frames)[:, None] / (n_frames - 1)
    center = center_start + ts * (center_goal - center_start)
    out = np.zeros((n_agents, n_frames, 2))
    for i in range(n_agents):
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.2, GROUP_RADIUS)
        offset = radius * np.array([np.cos(angle), np.sin(angle)])
        jitter = rng.normal(0.0, 0.03, size=(n_frames, 2))
        out[i] = center + offset + jitter
    return out


SYNTH_KINDS = ("cv", "avoid", "group")  # constant-velocity, mutually avoiding and group walkers


def synth_generate(seed, n_scenes, agents_range=(3, 6), n_frames=25, kinds=SYNTH_KINDS):
    """Deterministic synthetic crowd scenes mixing walker behaviors.

    Each scene mixes constant-velocity walkers, mutually avoiding walkers,
    and small goal-sharing groups inside a 20 m x 20 m arena, one frame
    every ``FRAME_INTERVAL`` seconds.  ``kinds`` draws among those walker
    kinds (``SYNTH_KINDS``); an empty or unknown kind is a ``ValueError``.
    """
    lo, hi = agents_range
    if lo < 2 or hi > 16 or lo > hi:
        raise ValueError(f"agents_range must lie within [2, 16], got {agents_range}")
    if n_frames < 2:
        raise ValueError(f"n_frames must be at least 2, got {n_frames}")
    unknown = [kind for kind in kinds if kind not in SYNTH_KINDS]
    if not kinds or unknown:
        raise ValueError(f"kinds must be one or more of {', '.join(SYNTH_KINDS)}, got {tuple(kinds)}")
    rng = np.random.default_rng(seed)
    drawn = []  # (agent count, track blocks, groups) per scene
    avoiders = []  # (track blocks, slot, draws): simulated together once every draw is made
    for _ in range(n_scenes):
        n_agents = int(rng.integers(lo, hi + 1))
        tracks = []
        groups = []
        remaining = n_agents
        while remaining > 0:
            kind = kinds[int(rng.integers(0, len(kinds)))]
            first_id = n_agents - remaining
            if kind != "cv" and remaining < 2:
                kind = "cv"
            if kind == "cv":
                tracks.append(_cv_tracks(rng, n_frames)[None])
                remaining -= 1
            elif kind == "avoid":
                take = int(min(remaining, rng.integers(2, 4)))
                avoiders.append((tracks, len(tracks), _avoider_draws(rng, take)))
                tracks.append(None)
                remaining -= take
            else:
                take = int(min(remaining, rng.integers(2, 5)))
                tracks.append(_group_tracks(rng, take, n_frames))
                groups.append(list(range(first_id, first_id + take)))
                remaining -= take
        drawn.append((n_agents, tracks, groups))
    if avoiders:
        walked = _avoider_tracks([draws for _, _, draws in avoiders], n_frames, FRAME_INTERVAL)
        for (tracks, slot, _), walkers in zip(avoiders, walked):
            tracks[slot] = walkers
    scenes = []
    for n_agents, tracks, groups in drawn:
        steps = np.concatenate(tracks, axis=0).transpose(1, 0, 2).reshape(-1, 2)  # rows in (frame, agent) order
        frames = list(zip(np.arange(n_frames).repeat(n_agents).tolist(), list(range(n_agents)) * n_frames,
                          steps[:, 0].tolist(), steps[:, 1].tolist()))
        scenes.append(Scene(frames=frames, groups=groups))
    return scenes
