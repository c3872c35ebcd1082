import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from votetree.executor import ExecutionTrace, StepRecord
from votetree.metrics import (
    MetricsRow,
    aggregate,
    compute_exec,
    compute_gcr,
    compute_sr,
    format_table,
    mean_std,
    score,
)
from votetree.plans import Command
from votetree.world import StatePredicate


def preds(*names):
    return frozenset(StatePredicate("CLEAN", n) for n in names)


def trace_with(outcomes):
    steps = tuple(
        StepRecord(Command("a", (f"o{i}",)), ok, None if ok else "x", (f"a(o{i})",))
        for i, ok in enumerate(outcomes)
    )
    return ExecutionTrace(steps, frozenset(), "completed")


class TestGCR:
    def test_full_recall(self):
        assert compute_gcr(preds("a", "b", "c"), preds("a", "b")) == 1.0

    def test_zero_recall(self):
        assert compute_gcr(preds("x"), preds("a", "b", "c", "d")) == 0.0

    def test_three_of_four(self):
        assert compute_gcr(preds("a", "b", "c"), preds("a", "b", "c", "d")) == 0.75

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            compute_gcr(preds("a"), frozenset())

    def test_monotonicity(self):
        target = preds("a", "b", "c", "d")
        achieved = preds("a")
        more = preds("a", "b")
        assert compute_gcr(more, target) >= compute_gcr(achieved, target)
        bigger_target = preds("a", "b", "c", "d", "e")
        assert compute_gcr(achieved, bigger_target) <= compute_gcr(achieved, target)


class TestSR:
    def test_mixed(self):
        assert compute_sr([1.0, 1.0, 0.5, 0.0]) == 0.5

    def test_all_success(self):
        assert compute_sr([1.0, 1.0]) == 1.0

    def test_none_success(self):
        assert compute_sr([0.9999, 0.5]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_sr([])


class TestExec:
    def test_nine_of_ten(self):
        assert compute_exec(trace_with([True] * 9 + [False])) == 0.9

    def test_all_succeed(self):
        assert compute_exec(trace_with([True] * 4)) == 1.0

    def test_empty_trace_is_zero_with_diagnostic(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="votetree.metrics"):
            value = compute_exec(ExecutionTrace((), frozenset(), "exhausted"))
        assert value == 0.0
        assert any("no commands were attempted" in r.message for r in caplog.records)

    def test_no_plan_trace_is_zero_without_diagnostic(self, caplog):
        """An episode with no plan is a failed episode, not an anomaly to warn about."""
        import logging

        with caplog.at_level(logging.WARNING, logger="votetree.metrics"):
            value = compute_exec(ExecutionTrace((), frozenset(), "no_plan"))
        assert value == 0.0 and not caplog.records

    def test_one_hallucination_in_five(self):
        assert compute_exec(trace_with([True, True, False, True, True])) == 0.8


class TestAggregation:
    def test_mean_std(self):
        mean, std = mean_std([0.0, 1.0])
        assert mean == 0.5 and std == 0.5

    def test_mean_std_of_nothing_is_nan(self):
        mean, std = mean_std([])
        assert mean != mean and std != std

    def test_aggregate_bounds(self):
        per_rep = [
            {"sr": 0.4, "gcr": 0.7, "exec": 0.9},
            {"sr": 0.5, "gcr": 0.8, "exec": 0.95},
        ]
        row = aggregate("m", per_rep)
        for value in (row.sr_mean, row.gcr_mean, row.exec_mean):
            assert 0.0 <= value <= 1.0
        for value in (row.sr_std, row.gcr_std, row.exec_std):
            assert value >= 0.0
        assert row.runs == 2

    def test_format_table_is_deterministic(self):
        row = MetricsRow("method", 0.43, 0.04, 0.70, 0.04, 0.89, 0.02, 10)
        assert format_table([row]) == format_table([row])
        assert "0.430" in format_table([row])

    def test_score_sums_left_to_right_on_every_python(self):
        """Python 3.12's ``sum`` compensates, and would give 1.0 / 10 here."""
        episodes = [{"rep": 0, "task_index": i, "gcr": 0.1, "exec": 0.1} for i in range(10)]
        _, (rep,) = score("m", episodes)
        assert rep["gcr"] == rep["exec"] == 0.9999999999999999 / 10


@pytest.fixture(scope="module")
def numpy():
    return pytest.importorskip("numpy")


class TestMeanStdMatchesNumpy:
    """``mean_std`` replaced numpy; run outputs pin its results to numpy's last bit."""

    @given(st.one_of(
        st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=300),
        # above 128 values numpy splits the sum in two
        st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=129, max_size=400),
        # per-repetition ratios such as SR over 31 tasks, the values runs aggregate
        st.lists(st.integers(0, 31).map(lambda k: k / 31), min_size=1, max_size=40),
    ))
    # 8, 9, 128 and 129 values straddle the sizes where numpy's summation order
    # changes, and the running and pairwise sums of n copies of 0.1 differ in
    # the last bit at each.
    @example([0.1] * 8)
    @example([0.1] * 9)
    @example([0.1] * 128)
    @example([0.1] * 129)
    def test_matches_numpy(self, numpy, values):
        arr = numpy.asarray(values, dtype=float)
        assert mean_std(values) == (float(arr.mean()), float(arr.std()))
