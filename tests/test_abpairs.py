"""The summary of ``tools/abpairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"
_spec = importlib.util.spec_from_file_location("abpairs", TOOL)
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)

SPEC = {"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
                       {"name": "windows_per_s", "unit": "windows/s", "better": "higher", "bound": 0.25}]}


def result(op_ms, rate, correct=True, failed=0, attempted=100):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"},
                        "windows_per_s": {"value": rate, "unit": "windows/s"}}}


def test_quartiles():
    assert abpairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("parent, change, better, expected", [
    # medians 10 and 13: 30% worse, beyond a 25% bound
    ([9.9, 10.0, 10.1, 10.0], [13.0, 12.9, 13.1, 13.0], "lower", "worse beyond bound"),
    # 20% worse, within the bound, and the parent's spread is tight
    ([9.9, 10.0, 10.1, 10.0], [12.0, 11.9, 12.1, 12.0], "lower", "no worse"),
    # higher is better: 100 -> 70 is 30% worse
    ([100.0, 101.0, 99.0, 100.0], [70.0, 71.0, 69.0, 70.0], "higher", "worse beyond bound"),
    # the parent's quartiles lie 4 apart around a median of 10: wider than the bound
    ([6.0, 8.0, 12.0, 14.0], [10.5, 10.0, 9.5, 10.0], "lower", "unresolved"),
    # ... unless every run of the change reads better than every run of the parent
    ([6.0, 8.0, 12.0, 14.0], [5.0, 5.5, 4.5, 5.0], "lower", "no worse"),
    ([6.0, 8.0, 12.0, 14.0], [15.0, 16.0, 17.0, 18.0], "higher", "no worse"),
])
def test_verdict(parent, change, better, expected):
    assert abpairs.verdict(parent, change, better, 0.25) == expected


def test_wins_count_strictly_better_pairs_only():
    assert abpairs.wins([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "lower") == 1
    assert abpairs.wins([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "higher") == 1


def test_summary_rows():
    pairs = [(result(10.0, 100.0), result(9.0, 110.0)), (result(10.2, 98.0), result(9.5, 104.0)),
             (result(9.8, 102.0), result(10.0, 99.0))]
    rows, incorrect, failed, status = abpairs.summarize(SPEC, pairs)
    assert [r["metric"] for r in rows] == ["op_ms_p50", "windows_per_s"]
    assert rows[0]["parent"] == (9.9, 10.0, 10.1) and rows[0]["change"] == (9.25, 9.5, 9.75)
    assert [r["wins"] for r in rows] == [2, 2] and all(r["pairs"] == 3 for r in rows)
    assert [r["verdict"] for r in rows] == ["no worse", "no worse"]
    assert (incorrect, failed, status) == (0, (0.0, 0.0), 0)
    line = abpairs.format_row(rows[0])
    assert line.startswith("op_ms_p50") and "9.5 [9.25, 9.75]" in line and line.endswith("wins 2/3  bound 25%  no worse")


@pytest.mark.parametrize("pairs, status", [
    ([(result(10.0, 100.0, correct=False), result(10.0, 100.0))], 1),
    ([(result(10.0, 100.0), result(10.0, 100.0, correct=False))], 1),
    # the change fails 2 of 200 operations, the parent 1 of 50: a smaller share
    ([(result(10.0, 100.0, failed=1, attempted=50), result(10.0, 100.0, failed=2, attempted=200))], 0),
    ([(result(10.0, 100.0, failed=1), result(10.0, 100.0, failed=2))], 1),
])
def test_exit_status(pairs, status):
    assert abpairs.summarize(SPEC, pairs)[3] == status
