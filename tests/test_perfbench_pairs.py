"""The alternating-pairs summary of ``benchmarks/perfbench_pairs.py``, on
fixed numbers (no benchmark runs here)."""

from __future__ import annotations

import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The runner imports its sibling perfbench_exact the way it does when run
# as a script: from the benchmarks directory.
sys.path.append(os.path.join(_REPO, "benchmarks"))
import perfbench_pairs  # noqa: E402

HIGHER = {"name": "events_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.2}
LOWER = {"name": "event_us_p50", "unit": "us", "better": "lower",
         "bound": 0.2}


def _runs(name, values):
    return [{name: value} for value in values]


def _row(metric, parent, change):
    (row,) = perfbench_pairs.summarize(
        _runs(metric["name"], parent), _runs(metric["name"], change),
        [metric],
    )
    return row


class TestSummarize:
    def test_clear_gain_is_claimable(self):
        parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
        change = [130, 131, 129, 128, 132, 130, 130, 127, 131, 99]
        row = _row(HIGHER, parent, change)
        assert row["parent_median"] == 100
        assert row["change_median"] == 130
        assert row["change_pct"] == 30.0
        # statistics.quantiles (exclusive): q1 98.75, q3 101.25.
        assert row["parent_iqr"] == 2.5
        assert (row["wins"], row["ties"], row["pairs"]) == (9, 0, 10)
        assert row["within_bound"] and row["claim"]

    def test_too_few_wins_is_no_claim(self):
        parent = [100] * 10
        change = [150] * 8 + [100, 90]
        row = _row(HIGHER, parent, change)
        assert (row["wins"], row["ties"]) == (8, 1)
        assert row["within_bound"] and not row["claim"]

    def test_gain_inside_parent_spread_is_no_claim(self):
        parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        change = [value + 4 for value in parent]
        row = _row(HIGHER, parent, change)
        assert row["wins"] == 10
        assert row["parent_iqr"] > 4
        assert not row["claim"]

    def test_lower_is_better_direction_and_bound(self):
        parent = [100, 100, 100, 100]
        row = _row(LOWER, parent, [80, 80, 80, 80])
        assert row["wins"] == 4 and row["claim"] and row["within_bound"]
        row = _row(LOWER, parent, [120, 120, 120, 120])
        assert row["wins"] == 0 and row["within_bound"]
        row = _row(LOWER, parent, [121, 121, 121, 121])
        assert not row["within_bound"]

    def test_higher_is_better_bound(self):
        parent = [100, 100]
        assert _row(HIGHER, parent, [80, 80])["within_bound"]
        assert not _row(HIGHER, parent, [79, 79])["within_bound"]

    def test_single_pair_has_zero_iqr(self):
        row = _row(HIGHER, [100], [101])
        assert row["parent_iqr"] == 0.0
        assert row["claim"]

    def test_format_names_every_metric(self):
        rows = perfbench_pairs.summarize(
            [{"events_per_s": 1.0, "event_us_p50": 2.0}],
            [{"events_per_s": 1.5, "event_us_p50": 1.0}],
            [HIGHER, LOWER],
        )
        text = perfbench_pairs.format_rows("jso", rows)
        assert text.splitlines()[0] == "jso: 1 alternating pairs"
        assert "events_per_s" in text and "event_us_p50" in text


class TestArguments:
    def test_workload_must_be_declared(self, capsys):
        """``--workload all`` is refused before any run: its metrics are
        keyed per workload, so no pair could be compared."""
        with pytest.raises(SystemExit) as exc:
            perfbench_pairs.main([_REPO, _REPO, "--workload", "all"])
        assert exc.value.code == 2
        assert "fig11-rbt, netcols, jso" in capsys.readouterr().err
