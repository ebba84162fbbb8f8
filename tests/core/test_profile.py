"""RunProfile: normalization, digests, ambient scope, deprecation shims."""

import warnings

import pytest

from repro.core.config import (
    RunProfile,
    active_profile,
    ambient_profile,
    reset_deprecation_warnings,
)
from repro.fault import FaultSchedule, LinkFlap
from repro.obs.runtime import MetricsConfig
from repro.topo.builder import ScenarioBuilder


# ---------------------------------------------------------- normalization
def test_defaults_match_the_paper():
    profile = RunProfile()
    assert profile.bitrate_bps == 256_000.0
    assert profile.queue_capacity == 64
    assert profile.timing is None and profile.trace is False
    assert profile.sanitize is None and profile.metrics is None
    assert profile.faults is None


def test_validation_rejects_bad_knobs():
    with pytest.raises(ValueError):
        RunProfile(bitrate_bps=0.0)
    with pytest.raises(ValueError):
        RunProfile(queue_capacity=0)
    with pytest.raises(TypeError):
        RunProfile(metrics="often")
    with pytest.raises(TypeError):
        RunProfile(faults="chaos")


def test_metrics_sugar_normalizes_to_config():
    assert RunProfile(metrics=True).metrics == MetricsConfig()
    assert RunProfile(metrics=2).metrics == MetricsConfig(interval=2.0)
    assert RunProfile(metrics=False).metrics is False
    assert RunProfile(metrics=None).metrics is None


def test_grid_kwargs_normalize_to_sorted_items():
    one = RunProfile(grid_kwargs={"range_m": 10.0, "alpha": 2.0})
    two = RunProfile(grid_kwargs={"alpha": 2.0, "range_m": 10.0})
    assert one == two
    assert one.grid_dict() == {"alpha": 2.0, "range_m": 10.0}


def test_empty_fault_schedule_normalizes_to_none():
    assert RunProfile(faults=FaultSchedule.empty()).faults is None


def test_but_returns_modified_copy():
    base = RunProfile()
    traced = base.but(trace=True)
    assert traced.trace and not base.trace


# ----------------------------------------------------------------- digest
def test_digest_is_stable_and_knob_sensitive():
    assert RunProfile().digest() == RunProfile().digest()
    assert RunProfile().digest() != RunProfile(trace=True).digest()
    assert RunProfile().digest() != RunProfile(queue_capacity=8).digest()


def test_empty_schedule_digest_equals_no_schedule():
    assert RunProfile(faults=FaultSchedule.empty()).digest() == RunProfile().digest()
    flap = FaultSchedule((LinkFlap("A", "B", 1.0, 2.0),))
    assert RunProfile(faults=flap).digest() != RunProfile().digest()


# ---------------------------------------------------------- ambient scope
def test_active_profile_scopes_the_ambient_profile():
    assert ambient_profile() is None
    profile = RunProfile(trace=True)
    with active_profile(profile) as current:
        assert current is profile
        assert ambient_profile() is profile
        assert RunProfile.current() is profile
    assert ambient_profile() is None
    assert RunProfile.current() == RunProfile()


def test_active_profile_rejects_non_profiles():
    with pytest.raises(TypeError):
        with active_profile({"trace": True}):
            pass  # pragma: no cover - never reached


def test_builder_adopts_the_ambient_profile():
    profile = RunProfile(queue_capacity=4)
    with active_profile(profile):
        builder = ScenarioBuilder(seed=1)
    assert builder.profile is profile
    # An explicit profile beats the ambient one.
    with active_profile(profile):
        explicit = ScenarioBuilder(seed=1, profile=RunProfile())
    assert explicit.profile == RunProfile()


# ------------------------------------------------------ deprecation shims
def test_legacy_kwargs_warn_once_and_still_work():
    reset_deprecation_warnings()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = ScenarioBuilder(seed=1, trace=True)
            ScenarioBuilder(seed=1, trace=True)
        assert first.profile.trace is True
        deprecations = [w for w in caught if w.category is DeprecationWarning]
        assert len(deprecations) == 1
        assert "profile=RunProfile(trace=...)" in str(deprecations[0].message)
    finally:
        reset_deprecation_warnings()


def test_legacy_kwargs_and_profile_build_identical_scenarios():
    reset_deprecation_warnings()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = ScenarioBuilder(seed=1, queue_capacity=8, trace=True)
        modern = ScenarioBuilder(
            seed=1, profile=RunProfile(queue_capacity=8, trace=True)
        )
        assert legacy.profile == modern.profile
    finally:
        reset_deprecation_warnings()


def test_unknown_builder_kwarg_is_a_type_error():
    with pytest.raises(TypeError):
        ScenarioBuilder(seed=1, chaos_level=11)
