"""Property tests: every window the data layer can produce trains and
evaluates to finite numbers.

Windows are drawn with random presence patterns (holes anywhere, agents
that leave before the future or enter late), 1 to 16 agents, and agents
that stand still, so that distances of exactly zero occur.  Draws are
derandomized, so the suite is the same on every run.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crowdcast.autodiff as ad
from crowdcast.data import TrajectoryWindow, normalize_window, pack_windows
from crowdcast.model import CrowdForecaster
from crowdcast.train import evaluate
from conftest import randomize_params, tiny_config, validate

T_IN, T_OUT = 8, 12
CFG = tiny_config(scales=(2, 3, 4))
MODELS = {
    "default": CrowdForecaster(CFG, seed=0),
    "random": randomize_params(CrowdForecaster(CFG, seed=0), seed=1),
}
PROPERTY = settings(deadline=None, max_examples=50, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@st.composite
def windows(draw, max_agents=16):
    """A window as ``window_scene`` cuts it: every agent has at least two
    observed steps, some agent has a future step, absent slots are zero."""
    n = draw(st.integers(1, max_agents))
    span = T_IN + T_OUT
    rows = draw(st.lists(st.lists(st.booleans(), min_size=span, max_size=span), min_size=n, max_size=n))
    presence = np.array(rows, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for i in range(n):
        if presence[i, :T_IN].sum() < 2:
            presence[i, rng.choice(T_IN, size=2, replace=False)] = True
    if not presence[:, T_IN:].any():
        presence[rng.integers(n), T_IN + rng.integers(T_OUT)] = True
    still = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    start = rng.uniform(-5, 5, size=(n, 1, 2))
    velocity = rng.uniform(-1, 1, size=(n, 1, 2)) * ~still[:, None, None]
    positions = (start + velocity * np.arange(span)[None, :, None]) * presence[:, :, None]
    window = TrajectoryWindow(positions=positions, presence=presence, agent_ids=list(range(n)),
                              origin_frame=0, t_in=T_IN, t_out=T_OUT)
    validate(window)
    return window


def assert_finite_loss_and_gradients(window, init):
    model = MODELS[init]
    for t in model.params.values():
        t.zero_grad()
    total, parts = model.training_loss(window, rng=np.random.default_rng(0))
    assert all(np.isfinite(v) for v in parts.values()), parts
    ad.backward(total)
    bad = [name for name, t in model.params.items() if t.grad is not None and not np.isfinite(t.grad).all()]
    assert bad == []


@PROPERTY
@given(window=windows(), init=st.sampled_from(sorted(MODELS)))
def test_single_window_gradients_finite(window, init):
    assert_finite_loss_and_gradients(normalize_window(window)[0], init)


@PROPERTY
@given(batch=st.lists(windows(max_agents=6), min_size=2, max_size=4), init=st.sampled_from(sorted(MODELS)))
def test_packed_window_gradients_finite(batch, init):
    packed = pack_windows([normalize_window(w)[0] for w in batch])
    assert_finite_loss_and_gradients(packed, init)


@PROPERTY
@given(batch=st.lists(windows(), min_size=1, max_size=3), init=st.sampled_from(sorted(MODELS)))
def test_evaluate_gives_a_finite_row_per_window(batch, init):
    rows, _ = evaluate(MODELS[init], batch, k=3, seed=0)
    assert [r["window"] for r in rows] == list(range(len(batch)))
    assert all(np.isfinite(r["minADE3"]) and np.isfinite(r["minFDE3"]) for r in rows)
