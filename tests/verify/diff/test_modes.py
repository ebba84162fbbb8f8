"""ExecMode: validation, labels, profile application, matrices."""

import pytest

from repro.core.config import RunProfile
from repro.verify.diff.modes import ExecMode, default_matrix, full_matrix


def test_default_matrix_covers_every_axis_once():
    labels = [mode.label for mode in default_matrix()]
    assert labels == ["base", "jobs2", "snap", "metrics"]


def test_full_matrix_is_the_cross_product():
    matrix = full_matrix()
    assert len(matrix) == 8
    assert len({mode.label for mode in matrix}) == 8
    assert ExecMode() in matrix
    assert ExecMode(jobs=2, snapshot=True, metrics=True) in matrix


def test_mode_validates_eagerly():
    with pytest.raises(ValueError):
        ExecMode(jobs=0)


def test_mode_apply_sets_the_metrics_knob():
    profile = RunProfile()
    applied = ExecMode(metrics=True).apply(profile)
    assert applied.metrics  # normalized to a MetricsConfig
    assert not ExecMode().apply(profile).metrics


def test_mode_dict_round_trip():
    mode = ExecMode(jobs=2, snapshot=True, metrics=True)
    assert ExecMode.from_dict(mode.to_dict()) == mode
    assert ExecMode.from_dict({}) == ExecMode()
