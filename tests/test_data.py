import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crowdcast.data import (
    GROUP_RADIUS,
    ParseError,
    Scene,
    TrajectoryWindow,
    last_observed_positions,
    last_present,
    normalize_window,
    parse_scene,
    synth_generate,
    window_scene,
    write_scene,
)

from conftest import frame_ids, validate


def make_scene(n_frames, n_agents, seed=0, offset=np.zeros(2)):
    rng = np.random.default_rng(seed)
    start = rng.uniform(0, 10, size=(n_agents, 2))
    vel = rng.uniform(-0.5, 0.5, size=(n_agents, 2))
    frames = []
    for t in range(n_frames):
        for a in range(n_agents):
            x, y = start[a] + t * vel[a] + offset
            frames.append((t, a, float(x), float(y)))
    return Scene(frames=frames)


PROPERTY = settings(deadline=None, max_examples=150, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def reference_window_scene(scene, stride=1, t_in=8, t_out=12):
    """The per-agent, per-step loop that ``window_scene`` replaced, kept as its oracle."""
    span = t_in + t_out
    ids = frame_ids(scene)
    if len(ids) < span:
        return []
    frame_index = {f: i for i, f in enumerate(ids)}
    by_agent = {}
    for frame_id, agent_id, x, y in scene.frames:
        by_agent.setdefault(agent_id, {})[frame_index[frame_id]] = (x, y)
    windows = []
    for start in range(0, len(ids) - span + 1, stride):
        agents = [a for a in sorted(by_agent) if sum(1 for t in range(start, start + t_in) if t in by_agent[a]) >= 2]
        if not agents:
            continue
        positions = np.zeros((len(agents), span, 2))
        presence = np.zeros((len(agents), span), dtype=bool)
        for i, agent_id in enumerate(agents):
            for t in range(span):
                pt = by_agent[agent_id].get(start + t)
                if pt is not None:
                    positions[i, t] = pt
                    presence[i, t] = True
        if presence[:, t_in:].any():
            windows.append(TrajectoryWindow(positions=positions, presence=presence, agent_ids=agents,
                                            origin_frame=ids[start], t_in=t_in, t_out=t_out))
    return windows


def assert_same_windows(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.positions.tobytes() == e.positions.tobytes() and g.positions.shape == e.positions.shape
        np.testing.assert_array_equal(g.presence, e.presence)
        assert g.agent_ids == e.agent_ids and all(type(a) is int for a in g.agent_ids)
        assert g.origin_frame == e.origin_frame and type(g.origin_frame) is int
        assert (g.t_in, g.t_out) == (e.t_in, e.t_out)
        np.testing.assert_array_equal(g.segment, np.zeros(g.n_agents, dtype=np.intp))


@st.composite
def scenes(draw):
    """Hand-built scenes: unsorted rows, gaps in frame ids, agents entering
    and leaving, one-step agents, and now and then a repeated row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_frames = int(rng.integers(0, 33))
    frame_ids = (draw(st.integers(-40, 40)) + np.cumsum(rng.integers(1, 5, size=n_frames))).tolist()
    agent_ids = (draw(st.sampled_from([-5, 0, 10**6])) + rng.choice(40, size=rng.integers(1, 9), replace=False)).tolist()
    hole_rate = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rows = []
    for a in agent_ids:
        enter = int(rng.integers(0, n_frames + 1))
        stay = 1 if rng.random() < 0.2 else int(rng.integers(1, n_frames + 2))  # some one-step agents
        for i in range(enter, min(enter + stay, n_frames)):
            if rng.random() >= hole_rate:
                rows.append((frame_ids[i], a, float(rng.normal(0, 5)), float(rng.normal(0, 5))))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    if rows and draw(st.booleans()):
        rows += [(f, a, x + 1.0, -y) for f, a, x, y in rows[: draw(st.integers(1, 3))]]
    return Scene(frames=rows)


class TestParse:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0 1 0.0 0.0\n10 1 1.0 0.0\n")
        scene = parse_scene(path)
        assert frame_ids(scene) == [0, 10]
        assert {a for _, a, _, _ in scene.frames} == {1}

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0 1 0.0 0.0\n0 1 2.0 2.0\n")
        with pytest.raises(ParseError):
            parse_scene(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0 1 0.0 0.0\n1 1 oops 0.0\n")
        with pytest.raises(ParseError, match=":2:"):
            parse_scene(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="empty"):
            parse_scene(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0 1 0.5 0.25 99 banana\n")
        scene = parse_scene(path)
        assert scene.frames == [(0, 1, 0.5, 0.25)]

    def test_round_trip(self, tmp_path):
        scene = make_scene(25, 3, seed=5)
        path = tmp_path / "rt.txt"
        write_scene(scene, path)
        back = parse_scene(path)
        assert back.frames == scene.frames

    @pytest.mark.parametrize("text, message", [
        ("0 1 0 0\n1 1 0\n", ":2: expected >= 4 columns, got 3"),
        ("0 1 0 0\n\n1 1 x 0\n", ":3: non-numeric field"),
        ("0 1.5 0 0\n", ":1: frame/agent ids must be integers"),
        ("0 1 0 0\n1 1 0 inf\n", ":2: non-finite position"),
        ("1 1 0 0\n0 1 0 0\n1.0 1e0 5 5\n", r":3: duplicate \(frame, agent\) pair \(1, 1\)"),
        ("0 1 0 0\n0 1 1 1\n2 2 x 0\n2 2\n", r":2: duplicate \(frame, agent\) pair \(0, 1\)"),
        ("0 1 0 0\n2 2\n0 1 1 1\n", ":2: expected >= 4 columns, got 2"),
    ])
    def test_first_offending_line_is_reported(self, tmp_path, text, message):
        path = tmp_path / "s.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}{message}$"):
            parse_scene(path)

    @pytest.mark.parametrize("bad_id", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_id_is_a_parse_error(self, tmp_path, bad_id, column):
        cols = ["3", "4", "0.5", "0.5"]
        cols[column] = bad_id
        path = tmp_path / "s.txt"
        path.write_text("0 1 0.0 0.0\n" + " ".join(cols) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: frame/agent ids must be integers$"):
            parse_scene(path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"0 1 0.0 0.0\n1 1 \xff 0.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            parse_scene(path)

    def test_ids_beyond_int64_are_exact(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1e20 5 1.0 2.0\n-3 -1e19 3.0 4.0\n")
        assert parse_scene(path).frames == [(-3, -10**19, 3.0, 4.0), (10**20, 5, 1.0, 2.0)]

    @PROPERTY
    @given(rows=st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                                   st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=30, unique_by=lambda r: r[:2]))
    @example(rows=[(0, 0, 5e-324, -0.0), (0, 1, 2.2250738585072014e-308, 1.7976931348623157e308),
                   (1, 0, -1e-310, 1e300), (-2, 7, 0.1, -123456789.123456789)])
    def test_round_trip_keeps_every_float(self, tmp_path_factory, rows):
        """Subnormals, signed zeros and large exponents come back bit for bit."""
        path = tmp_path_factory.mktemp("rt") / "s.txt"
        write_scene(Scene(frames=rows), path)
        back = parse_scene(path).frames
        expected = sorted(rows, key=lambda r: r[:2])
        assert [(f, a, x.hex(), y.hex()) for f, a, x, y in back] == \
            [(f, a, x.hex(), y.hex()) for f, a, x, y in expected]
        assert all(type(f) is int and type(a) is int for f, a, _, _ in back)


# sha256 of the frame files each corpus writes, in scene order, recorded
# from the per-row implementation of the data path.  The acceptance run and
# the benchmark train and score on these corpora, so a change to synthesis or
# writing that moves a byte shows here first.
PINNED_CORPORA = [
    ((7, 12, (3, 6), ("cv", "avoid", "group")), "406ff9d2cee483dedeb4144eaf7ff2405ea9caae1f719d2cf2110215f1e88169"),
    ((70, 3, (3, 6), ("avoid", "group")), "98d2b7c215bca22ae533d69ee04845a6f34b78498726c2248b6fa8d45f8b0a3a"),
    ((11, 4, (12, 16), ("cv", "avoid", "group")), "312e344acd599be4a5f77f24e8b7c7ffd45bf31a49f8e759bf22d84bf9ebc4a7"),
    (([0, 12], 6, (12, 12), ("cv", "avoid", "group")), "17c3f56aad2cf5c199386860bdbc87317d2cf02495ac0598a11c2e15d13c8f72"),
    (([0, 13], 6, (13, 13), ("cv", "avoid", "group")), "55585aa54c3c9c783079e50c76749885e6a623f7c9638e8020f8103f77000bc8"),
    (([0, 14], 6, (14, 14), ("cv", "avoid", "group")), "7ff68b37c601a897ed7ae96812cca180638553d0f201627310f6e9712d7a78ac"),
    (([0, 15], 6, (15, 15), ("cv", "avoid", "group")), "185939d5eb2023353b5c87c03b8c31f48fd5f6ebc8ba00e2266d548bf87e0c9e"),
    (([0, 16], 6, (16, 16), ("cv", "avoid", "group")), "b1404a23fcdd8b2fbf249e41bd9d0cd32f12c0a2900f79c45fd409de332a8824"),
]


@pytest.mark.parametrize("corpus, digest", PINNED_CORPORA, ids=["seed" + "-".join(map(str, np.ravel(c[0]))) for c, _ in PINNED_CORPORA])
def test_pinned_corpus_digests(tmp_path, corpus, digest):
    seed, n_scenes, agents_range, kinds = corpus
    h = hashlib.sha256()
    for i, scene in enumerate(synth_generate(seed, n_scenes, agents_range=agents_range, kinds=kinds)):
        path = tmp_path / f"scene{i:03d}.txt"
        write_scene(scene, path)
        h.update(path.read_bytes())
        assert parse_scene(path).frames == scene.frames
    assert h.hexdigest() == digest


class TestWindowing:
    def test_25_frames_gives_6_windows(self):
        wins = window_scene(make_scene(25, 3), stride=1)
        assert len(wins) == 6

    def test_exactly_one_window(self):
        wins = window_scene(make_scene(20, 2), stride=1)
        assert len(wins) == 1

    def test_too_short_is_empty(self):
        assert window_scene(make_scene(19, 2), stride=1) == []

    def test_future_only_agent_excluded(self):
        scene = make_scene(20, 2)
        # agent 9 exists only in the last 12 frames
        extra = [(t, 9, float(t), 0.0) for t in range(8, 20)]
        scene = Scene(frames=scene.frames + extra)
        win = window_scene(scene, stride=1)[0]
        assert 9 not in win.agent_ids

    def test_window_without_future_steps_skipped(self):
        # agents 0-2 leave at the observation boundary; agent 3 arrives after it
        frames = [(t, a, float(a), float(t)) for t in range(8) for a in range(3)]
        frames += [(t, 3, 5.0, float(t)) for t in range(8, 20)]
        assert window_scene(Scene(frames=frames), stride=1) == []

    def test_one_observed_step_excluded_two_kept(self):
        scene = make_scene(20, 1)
        scene = Scene(frames=scene.frames + [(7, 5, 1.0, 1.0)])  # 1 observed step
        win = window_scene(scene, stride=1)[0]
        assert 5 not in win.agent_ids
        scene2 = Scene(frames=scene.frames + [(6, 5, 1.0, 0.9)])  # now 2 steps
        win2 = window_scene(scene2, stride=1)[0]
        assert 5 in win2.agent_ids
        i = win2.agent_ids.index(5)
        assert win2.presence[i, 6] and win2.presence[i, 7]
        assert not win2.presence[i, 0]
        assert np.all(win2.positions[i, 0] == 0.0)

    def test_stride(self):
        assert len(window_scene(make_scene(26, 2), stride=3)) == 3

    def test_windows_validate(self):
        for w in window_scene(make_scene(30, 4, seed=2), stride=2):
            validate(w)

    def test_translation_covariance(self):
        shift = np.array([13.0, -4.5])
        wins_a = window_scene(make_scene(25, 3, seed=9), stride=1)
        wins_b = window_scene(make_scene(25, 3, seed=9, offset=shift), stride=1)
        for wa, wb in zip(wins_a, wins_b):
            np.testing.assert_allclose(wb.positions, wa.positions + shift, atol=1e-12)


    @PROPERTY
    @given(scene=scenes(), stride=st.integers(1, 4), horizons=st.sampled_from([(8, 12), (2, 1), (3, 5), (1, 3), (4, 0)]))
    def test_matches_reference_loop(self, scene, stride, horizons):
        t_in, t_out = horizons
        assert_same_windows(window_scene(scene, stride=stride, t_in=t_in, t_out=t_out),
                            reference_window_scene(scene, stride=stride, t_in=t_in, t_out=t_out))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_matches_reference_loop_on_synthetic_scenes_with_dropped_rows(self, stride):
        rng = np.random.default_rng(0)
        for scene in synth_generate(seed=3, n_scenes=4, agents_range=(3, 16), n_frames=40):
            frames = [r for r in scene.frames if rng.random() >= 0.15]
            scene = Scene(frames=[frames[i] for i in rng.permutation(len(frames))])
            assert_same_windows(window_scene(scene, stride=stride), reference_window_scene(scene, stride=stride))

    def test_memory_grows_with_rows_not_frames_times_agents(self):
        """2000 frames, 2000 agents present for 3 frames each: a dense
        [frames, agents] presence grid alone would take 4 MB."""
        n = 2000
        frames = [(f, a, float(a), float(f)) for a in range(n) for f in range(a, min(a + 3, n))]
        scene = Scene(frames=frames)
        tracemalloc.start()
        try:
            windows = window_scene(scene)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(windows) == n - 20 + 1
        assert peak - kept < 2**21, f"{(peak - kept) / 2**20:.1f} MiB of working memory"


class TestNormalize:
    def test_single_agent_constant(self):
        scene = Scene(frames=[(t, 0, 5.0, 5.0) for t in range(20)])
        win = window_scene(scene, stride=1)[0]
        norm, offset = normalize_window(win)
        np.testing.assert_array_equal(offset, [5.0, 5.0])
        np.testing.assert_array_equal(norm.positions, 0.0)

    def test_symmetric_agents_zero_offset(self):
        frames = []
        for t in range(20):
            frames.append((t, 0, 1.0 + t * 0.1, 2.0))
            frames.append((t, 1, -1.0 - t * 0.1, -2.0))
        win = window_scene(Scene(frames=frames), stride=1)[0]
        _, offset = normalize_window(win)
        np.testing.assert_allclose(offset, [0.0, 0.0], atol=1e-15)

    def test_round_trip(self):
        win = window_scene(make_scene(20, 4, seed=3), stride=1)[0]
        norm, offset = normalize_window(win)
        assert win.presence.all()
        assert np.max(np.abs(norm.positions + offset - win.positions)) < 1e-12


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(seed=11, n_scenes=3)
        b = synth_generate(seed=11, n_scenes=3)
        for sa, sb in zip(a, b):
            assert sa.frames == sb.frames

    def test_constant_velocity_agents_exact(self):
        scenes = synth_generate(seed=4, n_scenes=6, kinds=("cv",))
        for scene in scenes:
            by_agent = {}
            for f, a, x, y in scene.frames:
                by_agent.setdefault(a, []).append((x, y))
            for track in by_agent.values():
                track = np.array(track)
                vel = np.diff(track, axis=0)
                assert np.max(np.abs(vel - vel[0])) < 1e-9

    def test_group_members_stay_close(self):
        scenes = synth_generate(seed=8, n_scenes=6, kinds=("group",))
        bound = 2 * GROUP_RADIUS + 1.0  # shared center + jitter margin
        assert bound < 3.0
        checked = 0
        for scene in scenes:
            assert scene.groups
            by_frame = {}
            for f, a, x, y in scene.frames:
                by_frame.setdefault(f, {})[a] = (x, y)
            for members in scene.groups:
                for pts_by_agent in by_frame.values():
                    pts = np.array([pts_by_agent[a] for a in members])
                    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
                    assert d.max() < 3.0
                    checked += 1
        assert checked > 0

    def test_windows_come_out(self):
        scenes = synth_generate(seed=1, n_scenes=2)
        for scene in scenes:
            wins = window_scene(scene, stride=1)
            assert len(wins) == 6  # 25 frames
            for w in wins:
                validate(w)

    def test_agents_range_enforced(self):
        with pytest.raises(ValueError):
            synth_generate(seed=0, n_scenes=1, agents_range=(1, 4))

    def test_fewer_than_two_frames_rejected(self):
        """Tracks interpolate over n_frames - 1 steps; one frame would
        write non-finite positions."""
        with pytest.raises(ValueError, match="n_frames"):
            synth_generate(seed=0, n_scenes=1, n_frames=1)
        (scene,) = synth_generate(seed=0, n_scenes=1, n_frames=2)
        assert np.isfinite([r[2:] for r in scene.frames]).all()

    @pytest.mark.parametrize("kinds", [(), ("avoid", "intent"), ("groups",)])
    def test_empty_or_unknown_kind_rejected(self, kinds):
        """An unknown kind used to make group walkers, and no kind failed
        in numpy's draw."""
        with pytest.raises(ValueError, match="one or more of cv, avoid, group"):
            synth_generate(seed=0, n_scenes=1, kinds=kinds)


class TestLastPresent:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(3)
        presence = rng.random((40, 7)) < 0.4
        presence[0] = False
        expected = [np.nonzero(row)[0][-1] if row.any() else -1 for row in presence]
        np.testing.assert_array_equal(last_present(presence), expected)
        np.testing.assert_array_equal(last_present(presence.reshape(8, 5, 7)), np.reshape(expected, (8, 5)))

    def test_last_observed_positions(self):
        rng = np.random.default_rng(4)
        scene = make_scene(25, 5, seed=4)
        for w in window_scene(scene, stride=3):
            w.presence[:, : w.t_in] &= rng.random((w.n_agents, w.t_in)) < 0.7
            w.presence[:, 0] = True  # every agent keeps an observed step
            w.positions[~w.presence] = 0.0
            expected = [w.positions[i, np.nonzero(w.presence[i, : w.t_in])[0][-1]] for i in range(w.n_agents)]
            np.testing.assert_array_equal(last_observed_positions(w), expected)
