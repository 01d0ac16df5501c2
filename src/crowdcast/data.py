"""Frame-file parsing, window cutting, splits, and synthetic crowd scenes.

Scenes are whitespace-separated rows of ``frame_id agent_id x y`` (extra
columns ignored).  Windows hold ``t_in`` observed plus ``t_out`` future
timesteps for every agent present at >= 2 observed steps; absent slots are
zero-filled and flagged in the presence mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

T_IN_DEFAULT = 8
T_OUT_DEFAULT = 12

ARENA = 20.0  # synthetic scenes live in a 20 m x 20 m box
GROUP_RADIUS = 0.7  # max member offset from a synthetic group's center


class ParseError(ValueError):
    """Malformed scene file."""


class SplitError(ValueError):
    """Not enough scenes to build cross-validation folds."""


@dataclass
class Scene:
    """Raw trajectory records: (frame_id, agent_id, x, y) rows."""

    frames: list  # list of (frame_id, agent_id, x, y)
    frame_interval: float = 0.4
    groups: list = None  # synthetic-only: agent-id lists sharing a goal

    def frame_ids(self):
        return sorted({f for f, _, _, _ in self.frames})

    def agent_ids(self):
        return sorted({a for _, a, _, _ in self.frames})


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

    def validate(self):
        n, t, d = self.positions.shape
        if d != 2 or t != self.t_in + self.t_out:
            raise ValueError(f"bad window shape {self.positions.shape}")
        if self.presence.shape != (n, t):
            raise ValueError("presence shape disagrees with positions")
        if self.segment.shape != (n,):
            raise ValueError("segment shape disagrees with positions")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite positions")
        if np.any(self.presence[:, : self.t_in].sum(axis=1) < 2):
            raise ValueError("agent with < 2 observed steps survived windowing")
        if not np.all(self.positions[~self.presence] == 0.0):
            raise ValueError("absent slots must hold zeros")


def parse_scene(path, frame_interval=0.4):
    """Parse a frame file; rejects malformed rows and duplicate (frame, agent)."""
    frames = []
    seen = set()
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) < 4:
                raise ParseError(f"{path}:{lineno}: expected >= 4 columns, got {len(cols)}")
            try:
                frame_f, agent_f = float(cols[0]), float(cols[1])
                x, y = float(cols[2]), float(cols[3])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from None
            if frame_f != int(frame_f) or agent_f != int(agent_f):
                raise ParseError(f"{path}:{lineno}: frame/agent ids must be integers")
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ParseError(f"{path}:{lineno}: non-finite position")
            key = (int(frame_f), int(agent_f))
            if key in seen:
                raise ParseError(f"{path}:{lineno}: duplicate (frame, agent) pair {key}")
            seen.add(key)
            frames.append((key[0], key[1], x, y))
    if not frames:
        raise ParseError(f"{path}: empty scene")
    frames.sort(key=lambda r: (r[0], r[1]))
    return Scene(frames=frames, frame_interval=frame_interval)


def write_scene(scene, path):
    """Write a scene in the frame-file format; round-trips through parse."""
    with open(path, "w") as fh:
        for frame_id, agent_id, x, y in sorted(scene.frames, key=lambda r: (r[0], r[1])):
            fh.write(f"{frame_id} {agent_id} {x!r} {y!r}\n")


def window_scene(scene, stride=1, t_in=T_IN_DEFAULT, t_out=T_OUT_DEFAULT):
    """Cut sliding windows of t_in + t_out consecutive distinct frames.

    Agents present for fewer than 2 observed steps are dropped from that
    window, and a window in which no kept agent has a future step is
    skipped, since nothing in it can be scored.  Returns an empty list
    when the scene is too short.
    """
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    span = t_in + t_out
    frame_ids = scene.frame_ids()
    if len(frame_ids) < span:
        return []
    frame_index = {f: i for i, f in enumerate(frame_ids)}

    by_agent = {}
    for frame_id, agent_id, x, y in scene.frames:
        by_agent.setdefault(agent_id, {})[frame_index[frame_id]] = (x, y)

    windows = []
    for start in range(0, len(frame_ids) - span + 1, stride):
        agents = []
        for agent_id in sorted(by_agent):
            steps = by_agent[agent_id]
            observed = sum(1 for t in range(start, start + t_in) if t in steps)
            if observed >= 2:
                agents.append(agent_id)
        if not agents:
            continue
        n = len(agents)
        positions = np.zeros((n, span, 2))
        presence = np.zeros((n, span), dtype=bool)
        for i, agent_id in enumerate(agents):
            steps = by_agent[agent_id]
            for t in range(span):
                pt = steps.get(start + t)
                if pt is not None:
                    positions[i, t] = pt
                    presence[i, t] = True
        if not presence[:, t_in:].any():
            continue
        windows.append(
            TrajectoryWindow(
                positions=positions,
                presence=presence,
                agent_ids=agents,
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
    shifted = TrajectoryWindow(
        positions=positions,
        presence=window.presence.copy(),
        agent_ids=list(window.agent_ids),
        origin_frame=window.origin_frame,
        t_in=window.t_in,
        t_out=window.t_out,
    )
    return shifted, offset


def pack_windows(windows):
    """Disjoint union of windows along the agent axis, as one window.

    Agents keep their order; ``segment`` numbers the source window of
    each.  The windows must already be normalized and augmented: packing
    moves no position.  ``origin_frame`` is the first window's.
    """
    if not windows:
        raise ValueError("pack_windows needs at least one window")
    first = windows[0]
    if any((w.t_in, w.t_out) != (first.t_in, first.t_out) for w in windows):
        raise ValueError("packed windows must share t_in and t_out")
    return TrajectoryWindow(
        positions=np.concatenate([w.positions for w in windows], axis=0),
        presence=np.concatenate([w.presence for w in windows], axis=0),
        agent_ids=[a for w in windows for a in w.agent_ids],
        origin_frame=first.origin_frame,
        t_in=first.t_in,
        t_out=first.t_out,
        segment=np.repeat(np.arange(len(windows)), [w.n_agents for w in windows]),
    )


def last_observed_positions(window):
    """Per-agent position at the last present observed timestep, [N, 2]."""
    obs_pos, obs_pres = window.observed()
    n = window.n_agents
    anchors = np.zeros((n, 2))
    for i in range(n):
        idx = np.nonzero(obs_pres[i])[0]
        anchors[i] = obs_pos[i, idx[-1]]
    return anchors


def agent_relative_positions(window):
    """Each agent's track minus its own last observed position, [N, T, 2].

    Covers observed and future steps; absent slots stay zero.  Returns the
    relative tracks and the anchors [N, 2] they are relative to.
    """
    anchors = last_observed_positions(window)
    relative = window.positions - anchors[:, None, :]
    relative[~window.presence] = 0.0
    return relative, anchors


def leave_one_out_split(named_scenes):
    """One fold per scene: (train names, test name)."""
    if isinstance(named_scenes, dict):
        names = list(named_scenes)
    else:
        names = [n[0] if isinstance(n, tuple) else n for n in named_scenes]
    if len(names) < 2:
        raise SplitError(f"need >= 2 named scenes for leave-one-out, got {len(names)}")
    return [([n for n in names if n != test], test) for test in names]


# -- synthetic corpus ------------------------------------------------------


def _arena_point(rng, margin=2.0):
    return rng.uniform(margin, ARENA - margin, size=2)


def _cv_tracks(rng, n_frames):
    """Exactly linear motion from a random start to a random goal."""
    start = _arena_point(rng)
    goal = _arena_point(rng)
    ts = np.arange(n_frames)[:, None] / (n_frames - 1)
    return start + ts * (goal - start)


def _avoider_tracks(rng, n_agents, n_frames, dt):
    """Goal-directed walkers with pairwise exponential repulsion."""
    starts = np.stack([_arena_point(rng) for _ in range(n_agents)])
    goals = np.stack([_arena_point(rng) for _ in range(n_agents)])
    speed = rng.uniform(0.8, 1.4, size=(n_agents, 1))
    pos = starts.copy()
    out = np.zeros((n_agents, n_frames, 2))
    out[:, 0] = pos
    for t in range(1, n_frames):
        to_goal = goals - pos
        dist_goal = np.linalg.norm(to_goal, axis=1, keepdims=True)
        v_des = speed * to_goal / np.maximum(dist_goal, 1e-9)
        push = np.zeros_like(pos)
        for i in range(n_agents):
            delta = pos[i] - pos
            d = np.linalg.norm(delta, axis=1)
            for j in range(n_agents):
                if j == i or d[j] > 4.0:
                    continue
                push[i] += 1.5 * np.exp(-d[j] / 0.8) * delta[j] / max(d[j], 1e-9)
        pos = pos + dt * (v_des + push)
        pos = np.clip(pos, 0.5, ARENA - 0.5)
        out[:, t] = pos
    return out


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


def synth_generate(seed, n_scenes, agents_range=(3, 6), n_frames=25, frame_interval=0.4, kinds=("cv", "avoid", "group")):
    """Deterministic synthetic crowd scenes mixing walker behaviors.

    Each scene mixes constant-velocity walkers, mutually avoiding walkers,
    and small goal-sharing groups inside a 20 m x 20 m arena.
    """
    lo, hi = agents_range
    if lo < 2 or hi > 16 or lo > hi:
        raise ValueError(f"agents_range must lie within [2, 16], got {agents_range}")
    rng = np.random.default_rng(seed)
    scenes = []
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
                tracks.append(_avoider_tracks(rng, take, n_frames, frame_interval))
                remaining -= take
            else:
                take = int(min(remaining, rng.integers(2, 5)))
                tracks.append(_group_tracks(rng, take, n_frames))
                groups.append(list(range(first_id, first_id + take)))
                remaining -= take
        all_tracks = np.concatenate(tracks, axis=0)
        frames = []
        for agent_id in range(all_tracks.shape[0]):
            for t in range(n_frames):
                x, y = all_tracks[agent_id, t]
                frames.append((t, agent_id, float(x), float(y)))
        frames.sort(key=lambda r: (r[0], r[1]))
        scenes.append(Scene(frames=frames, frame_interval=frame_interval, groups=groups))
    return scenes
