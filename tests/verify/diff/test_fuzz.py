"""Fuzzer grammar determinism, serialization, and shrinker minimality."""

from repro.fault import BurstNoise, LinkFlap
from repro.verify.diff.fuzz import FuzzScenario, generate_case, run_fuzz
from repro.verify.diff.modes import ExecMode
from repro.verify.diff.oracle import ScenarioOracle
from repro.verify.diff.shrink import shrink_case


def test_generate_case_is_deterministic():
    assert generate_case(42, 3).to_dict() == generate_case(42, 3).to_dict()
    assert generate_case(42, 3).to_dict() != generate_case(42, 4).to_dict()
    assert generate_case(42, 3).to_dict() != generate_case(43, 3).to_dict()


def test_generated_cases_are_well_formed():
    for index in range(8):
        case = generate_case(9, index)
        assert 2 <= len(case.pads) <= 5
        stations = set(case.pads) | {"B"}
        assert case.flows
        for src, dst, rate in case.flows:
            assert {src, dst} <= stations
            assert rate > 0
        for a, b in case.extra_links:
            assert {a, b} <= set(case.pads)
        assert len(case.faults) <= 3


def test_case_dict_round_trip():
    case = generate_case(5, 1)
    assert FuzzScenario.from_dict(case.to_dict()).to_dict() == case.to_dict()


def test_shrink_is_greedy_1_minimal_under_a_synthetic_predicate():
    noise = BurstNoise(start=2.0, end=3.0, error_rate=0.5)
    case = FuzzScenario(
        seed=5, duration=8.0,
        pads=("P1", "P2", "P3"),
        extra_links=(("P1", "P2"),),
        flows=(("P1", "B", 32.0), ("B", "P2", 16.0), ("P3", "B", 48.0)),
        faults=(noise, LinkFlap(a="B", b="P1", start=4.0, end=5.0)),
    )

    def still_fails(smaller: FuzzScenario) -> bool:
        return any(isinstance(f, BurstNoise) for f in smaller.faults)

    shrunk = shrink_case(case, still_fails)
    # Everything irrelevant to the predicate is gone ...
    assert shrunk.faults == (noise,)
    assert len(shrunk.pads) == 1
    assert len(shrunk.flows) == 1
    assert shrunk.extra_links == ()
    # ... and the result is 1-minimal: no single further removal both
    # stays valid and keeps failing.
    for candidate in shrunk.removal_candidates():
        smaller = shrunk.remove(candidate)
        assert smaller is None or not still_fails(smaller)


def test_shrink_respects_the_probe_budget():
    calls = []

    def always_fails(smaller: FuzzScenario) -> bool:
        calls.append(smaller)
        return True

    case = FuzzScenario(
        seed=1, duration=8.0,
        pads=("P1", "P2", "P3", "P4"),
        flows=(("P1", "B", 32.0), ("P2", "B", 32.0),
               ("P3", "B", 32.0), ("P4", "B", 32.0)),
    )
    shrink_case(case, always_fails, max_probes=2)
    assert len(calls) == 2


def test_run_fuzz_finds_shrinks_and_localizes(perturb_mode):
    modes = [ExecMode(), perturb_mode]
    failure = run_fuzz(budget=1, seed=0, duration=6.0, modes=modes)
    assert failure is not None
    assert failure.index == 0

    # The shrunk case still reproduces the divergence ...
    oracle = ScenarioOracle(modes=modes)
    assert oracle.check(failure.shrunk) is not None
    # ... and under a perturbation that breaks *every* scenario, the
    # 1-minimal case is the grammar's smallest valid one.
    assert len(failure.shrunk.pads) == 1
    assert len(failure.shrunk.flows) == 1
    assert failure.shrunk.faults == ()
    assert failure.shrunk.extra_links == ()

    assert failure.point is not None
    assert failure.point.time > 0.0
    assert failure.repro["kind"] == "scenario"
    assert failure.repro["divergence"]["event_index"] == failure.point.event_index
    assert failure.repro["mode_b"] == perturb_mode.to_dict()


def test_run_fuzz_clean_budget_returns_none():
    failure = run_fuzz(budget=2, seed=11, duration=4.0,
                       modes=[ExecMode(), ExecMode(metrics=True)])
    assert failure is None
