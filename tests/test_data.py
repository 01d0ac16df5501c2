import numpy as np
import pytest

from crowdcast.data import (
    GROUP_RADIUS,
    ParseError,
    Scene,
    last_observed_positions,
    last_present,
    normalize_window,
    parse_scene,
    synth_generate,
    window_scene,
    write_scene,
)


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


class TestParse:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0 1 0.0 0.0\n10 1 1.0 0.0\n")
        scene = parse_scene(path)
        assert scene.frame_ids() == [0, 10]
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
            w.validate()

    def test_translation_covariance(self):
        shift = np.array([13.0, -4.5])
        wins_a = window_scene(make_scene(25, 3, seed=9), stride=1)
        wins_b = window_scene(make_scene(25, 3, seed=9, offset=shift), stride=1)
        for wa, wb in zip(wins_a, wins_b):
            np.testing.assert_allclose(wb.positions, wa.positions + shift, atol=1e-12)


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
                w.validate()

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
