"""The oracle passes clean on the stock modes, at both granularities."""

import pytest

from repro.verify.diff.fuzz import FuzzScenario
from repro.verify.diff.modes import ExecMode, default_matrix
from repro.verify.diff.oracle import DiffOracle, ScenarioOracle


def _case() -> FuzzScenario:
    return FuzzScenario(
        seed=3, duration=6.0,
        pads=("P1", "P2"),
        flows=(("P1", "B", 32.0), ("B", "P2", 16.0)),
    )


def test_scenario_oracle_mode_matrix_clean_on_stock_backends():
    # Covers every axis: a pool worker, a genuine snapshot capture/restore
    # roundtrip, and metrics collection.
    oracle = ScenarioOracle(modes=default_matrix())
    assert oracle.check(_case()) is None


def test_scenario_oracle_digest_is_horizon_prefix_stable():
    # The property bisection rests on: stopping early never changes the
    # records already emitted, so a short run's digest only depends on
    # the horizon, not on how far the run would have continued.
    oracle = ScenarioOracle(modes=[ExecMode(), ExecMode(metrics=True)])
    case = _case()
    half_a = oracle.run_case(case, oracle.modes[0], horizon=3.0, traced=True)
    half_b = oracle.run_case(case, oracle.modes[1], horizon=3.0, traced=True)
    assert half_a.digest == half_b.digest
    full = oracle.run_case(case, oracle.modes[0], traced=True)
    assert full.records[:len(half_a.records)] == half_a.records


def test_diff_oracle_experiment_grid_clean():
    oracle = DiffOracle(["table2"], seeds=(0,), duration=12.0, warmup=2.0)
    report = oracle.check()
    assert report.ok
    assert set(report.digests) == {mode.label for mode in oracle.modes}
    # Every mode produced the same per-cell digest list.
    assert len({tuple(column) for column in report.digests.values()}) == 1


def test_oracles_require_two_modes():
    with pytest.raises(ValueError):
        DiffOracle(["table2"], modes=[ExecMode()])
    with pytest.raises(ValueError):
        ScenarioOracle(modes=[ExecMode()])
