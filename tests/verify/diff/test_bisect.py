"""The bisector pins an injected single-mode divergence.

The ``perturb_mode`` fixture (see conftest) delays every event the
metrics mode schedules past a trigger time, so a plain run and a
metrics run of the same scenario share a byte-identical record prefix
and then part ways at the clean run's first post-trigger event.  These tests prove the bisector
localizes exactly that record — against a reference answer computed the
expensive way, from two full traced runs — and that the repro JSON it
emits replays standalone to the same spot.
"""

import pytest

from repro.verify.diff.bisect import locate_first_divergence
from repro.verify.diff.fuzz import (
    FuzzScenario,
    load_repro,
    replay_repro,
    scenario_repro,
    write_repro,
)
from repro.verify.diff.modes import ExecMode
from repro.verify.diff.oracle import ScenarioOracle

from tests.verify.diff.conftest import PERTURB_TRIGGER_S


def _case() -> FuzzScenario:
    return FuzzScenario(
        seed=7, duration=6.0,
        pads=("P1", "P2"),
        flows=(("P1", "B", 32.0), ("B", "P2", 16.0)),
    )


def _oracle(perturb_mode: ExecMode) -> ScenarioOracle:
    return ScenarioOracle(modes=[ExecMode(), perturb_mode])


def test_oracle_flags_the_perturbed_mode(perturb_mode):
    divergence = _oracle(perturb_mode).check(_case())
    assert divergence is not None
    assert divergence.mode_a == ExecMode()
    assert divergence.mode_b == perturb_mode
    assert divergence.digest_a != divergence.digest_b


def test_bisector_pins_the_exact_first_divergent_record(perturb_mode):
    case = _case()
    oracle = _oracle(perturb_mode)
    clean_mode, shifted_mode = oracle.modes

    # Reference answer: two full traced runs, first index where they part.
    clean = oracle.run_case(case, clean_mode, traced=True)
    shifted = oracle.run_case(case, shifted_mode, traced=True)
    expected = next(
        (i for i in range(min(len(clean.records), len(shifted.records)))
         if clean.records[i] != shifted.records[i]),
        None,
    )
    assert expected is not None

    point = locate_first_divergence(
        oracle.replayer(case, clean_mode),
        oracle.replayer(case, shifted_mode),
        case.duration,
    )
    assert point is not None
    assert point.scenario_index == 0
    assert point.event_index == expected
    assert point.time == clean.records[expected].time
    # Nothing before the trigger may diverge.
    assert point.time > PERTURB_TRIGGER_S
    assert point.record_a != point.record_b
    assert point.digest_a != point.digest_b
    # The search converged onto the divergent event's own time.
    assert 0.0 <= point.horizon - point.time <= 1e-5
    assert 0 < point.probes <= 48


def test_bisector_returns_none_when_runs_agree():
    oracle = ScenarioOracle(modes=[ExecMode(), ExecMode(metrics=True)])
    case = _case()
    point = locate_first_divergence(
        oracle.replayer(case, oracle.modes[0]),
        oracle.replayer(case, oracle.modes[1]),
        case.duration,
    )
    assert point is None


def test_repro_json_replays_to_the_same_event(tmp_path, perturb_mode):
    case = _case()
    oracle = _oracle(perturb_mode)
    divergence = oracle.check(case)
    assert divergence is not None
    point = locate_first_divergence(
        oracle.replayer(case, oracle.modes[0]),
        oracle.replayer(case, oracle.modes[1]),
        case.duration,
    )
    assert point is not None

    payload = scenario_repro(case, oracle.profile, divergence, point)
    path = write_repro(str(tmp_path / "repro.json"), payload)
    loaded = load_repro(str(path))
    assert loaded["kind"] == "scenario"
    assert loaded["scenario"]["seed"] == case.seed
    assert loaded["divergence"]["event_index"] == point.event_index

    replayed = replay_repro(loaded)
    assert replayed is not None
    assert replayed.event_index == point.event_index
    assert replayed.time == point.time


def test_load_repro_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 99}', encoding="utf-8")
    with pytest.raises(ValueError, match="schema"):
        load_repro(str(bad))
