import numpy as np
import pytest

from crowdcast.attention import SegmentBlocks
from crowdcast.config import TrainConfig
from crowdcast.data import TrajectoryWindow
from crowdcast.model import CrowdForecaster


def tiny_config(**overrides):
    """Small dims so full-model numerics stay fast."""
    base = dict(d_model=8, heads=2, ffn_hidden=16, layers=1, d_emb=8, d_z=4,
                cvae_hidden=16, scales=(2,), epochs=2, batch_size=4)
    base.update(overrides)
    return TrainConfig(**base)


def randomize_params(model, seed, scale=0.25):
    """Overwrite every parameter with small uniform noise (gradient checks
    need the zero-initialized output heads to be live)."""
    rng = np.random.default_rng(seed)
    for name in sorted(model.params):
        t = model.params[name]
        t.data = rng.uniform(-scale, scale, size=t.shape)
    return model


def one_segment(n):
    """The ``SegmentBlocks`` of a plain window of n agents: one segment."""
    return SegmentBlocks(np.zeros(n, dtype=np.intp))


def frame_ids(scene):
    """A scene's distinct frame ids, ascending."""
    return sorted({f for f, _, _, _ in scene.frames})


def validate(window):
    """Raise ValueError unless ``window`` keeps the ``TrajectoryWindow``
    invariants that ``window_scene`` and ``pack_windows`` promise."""
    n, t, d = window.positions.shape
    if d != 2 or t != window.t_in + window.t_out:
        raise ValueError(f"bad window shape {window.positions.shape}")
    if window.presence.shape != (n, t):
        raise ValueError("presence shape disagrees with positions")
    if window.segment.shape != (n,):
        raise ValueError("segment shape disagrees with positions")
    if not np.all(np.isfinite(window.positions)):
        raise ValueError("non-finite positions")
    if np.any(window.presence[:, : window.t_in].sum(axis=1) < 2):
        raise ValueError("agent with < 2 observed steps survived windowing")
    if not np.all(window.positions[~window.presence] == 0.0):
        raise ValueError("absent slots must hold zeros")


def random_window(seed, n=3, t_in=8, t_out=12, holes=False, speed=0.5):
    """Smooth random tracks; optionally punch presence holes."""
    rng = np.random.default_rng(seed)
    t = t_in + t_out
    start = rng.uniform(-4, 4, size=(n, 1, 2))
    vel = rng.uniform(-speed, speed, size=(n, 1, 2))
    steps = np.arange(t).reshape(1, t, 1)
    wiggle = rng.normal(0, 0.05, size=(n, t, 2)).cumsum(axis=1)
    positions = start + vel * steps + wiggle
    presence = np.ones((n, t), dtype=bool)
    if holes:
        for i in range(n):
            k = rng.integers(0, t // 3)
            off = rng.choice(t, size=k, replace=False)
            presence[i, off] = False
        presence[:, :2] = True  # keep >= 2 observed steps
    positions = positions * presence[:, :, None]
    return TrajectoryWindow(positions=positions, presence=presence,
                            agent_ids=list(range(n)), origin_frame=0,
                            t_in=t_in, t_out=t_out)


@pytest.fixture
def tiny_cfg():
    return tiny_config()


@pytest.fixture
def tiny_model(tiny_cfg):
    return CrowdForecaster(tiny_cfg, seed=0)
