"""Argument validation of the region-sharded fleet soak."""

from __future__ import annotations

import pytest

from repro.experiments import fleet
from repro.experiments.fleet import (
    FleetRegion,
    run_fleet_region,
    run_fleet_soak,
)


@pytest.fixture
def no_regions_run(monkeypatch):
    """Fail the test if any region starts simulating."""

    def refuse(*args, **kwargs):
        raise AssertionError("a region ran before the arguments were checked")

    monkeypatch.setattr(fleet, "GridSimulator", refuse)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"probe_interval": 0}, "probe_interval"),
        ({"probe_interval": -3}, "probe_interval"),
        ({"ticks": -1}, "ticks"),
        ({"wave_period": -1}, "wave_period"),
    ],
)
def test_soak_rejects_bad_arguments_before_any_region(
    no_regions_run, kwargs, message
):
    args = {"ticks": 5, **kwargs}
    with pytest.raises(ValueError, match=message):
        run_fleet_soak(4, 4, regions=2, **args)
    with pytest.raises(ValueError, match=message):
        run_fleet_region(FleetRegion(0, 4, 4, seed=0), **args)


def test_soak_accepts_the_boundary_values():
    report = run_fleet_soak(
        4, 4, ticks=0, regions=2, wave_period=0, probe_interval=1
    )
    assert report.cycles == 0
    assert report.cells == 16
    report = run_fleet_soak(
        4, 4, ticks=3, regions=1, wave_period=1, probe_interval=1
    )
    assert report.cycles == 3
    assert report.wave_hits == 3 * 4
