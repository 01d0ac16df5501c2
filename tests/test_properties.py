"""Property tests: every window the data layer can produce trains and
evaluates to finite numbers.

Windows are drawn with random presence patterns (holes anywhere, agents
that leave before the future or enter late), 1 to 16 agents, and agents
that stand still, so that distances of exactly zero occur.  Scene files
are drawn as bytes and go through ``parse_scene`` and ``window_scene`` as
the command line reads them.  Draws are derandomized, so the suite is the
same on every run.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import crowdcast.autodiff as ad
from crowdcast.data import MAX_COORD, ParseError, TrajectoryWindow, normalize_window, pack_windows, parse_scene, window_scene
from crowdcast.model import CrowdForecaster
from crowdcast.train import evaluate, train
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


# short horizons, so that a file of a few frames holds windows
FILE_CFG = tiny_config(t_in=3, t_out=2, epochs=1, scales=(1, 2))
HUGE_SCENE = "".join(f"{f} {a} {1e200 if a == 7 else 0.5 * f} {a}\n" for f in range(6) for a in (3, 7, 9)).encode()


@st.composite
def scene_files(draw):
    """A scene file as bytes: rows of random frame and agent ids with
    coordinates from 0 to 1e200, extra columns, tabs and CRLF line ends,
    and now and then invalid UTF-8 or a junk token."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = rng.choice([1.0, 50.0, MAX_COORD, 1e9, 1e200])
    first = draw(st.integers(-5, 5))
    agents = draw(st.lists(st.integers(-3, 10**6), min_size=1, max_size=6, unique=True))
    separator = rng.choice([" ", "\t", " \t "])
    rows = []
    for frame in range(first, first + int(rng.integers(0, 13))):
        for agent in agents:
            if rng.random() < 0.85:
                cols = [str(frame), str(agent), *map(repr, (scale * rng.uniform(size=2)).tolist())]
                rows.append(separator.join(cols + ["1.5"] * int(rng.integers(0, 2))))
    if rows and rng.random() < 0.1:
        at = int(rng.integers(len(rows)))
        rows[at] = rows[at].replace(separator, separator + rng.choice(["oops", "nan", "1e999"]), 1)
    blob = rng.choice(["\n", "\r\n"]).join(rows).encode()
    if rng.random() < 0.1:
        at = int(rng.integers(len(blob) + 1))
        blob = blob[:at] + b"\xff" + blob[at:]
    return blob


@settings(deadline=None, max_examples=100, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(blob=scene_files())
@example(blob=HUGE_SCENE)
def test_scene_files_are_rejected_or_train_and_evaluate(blob, tmp_path_factory):
    """A file ``parse_scene`` accepts and ``window_scene`` cuts trains one
    epoch and evaluates to finite rows; any other file is a ``ParseError``,
    or a ``ValueError`` for a coordinate beyond ``MAX_COORD``.  A scene with
    x near 1e200 used to be cut into windows on which training aborted."""
    path = tmp_path_factory.getbasetemp() / "drawn_scene.txt"
    path.write_bytes(blob)
    try:
        scene = parse_scene(path)
    except ParseError:
        return
    try:
        windows = window_scene(scene, t_in=FILE_CFG.t_in, t_out=FILE_CFG.t_out)
    except ValueError as exc:
        assert f"is beyond the {MAX_COORD:g} m bound" in str(exc)
        return
    if windows:
        model, _ = train(FILE_CFG, windows)
        rows, _ = evaluate(model, windows, k=2, seed=0)
        assert all(np.isfinite(r["minADE2"]) and np.isfinite(r["minFDE2"]) for r in rows)
