"""Tests for deterministic fault injection (repro.resilience.faults)."""

import json
import os

import pytest

from repro import obs
from repro.errors import InjectedFault
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.resilience.faults import (
    ENV_FAULTS,
    ENV_SEED,
    FaultInjector,
    FaultSpec,
    corrupt_region,
    current_injector,
    injecting,
    install_injector,
    uninstall_injector,
)

#: The chaos seed matrix hook: CI re-runs this module under several
#: seeds; rate-1 faults must behave identically under every one.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def square(size: float = 1.0) -> Region:
    return Region.from_polygon(
        Polygon(
            (
                Point(0, 0),
                Point(0, size),
                Point(size, size),
                Point(size, 0),
            )
        )
    )


class TestFaultSpec:
    def test_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="raise", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="delay", seconds=-1.0)

    def test_only_matches_context_as_strings(self):
        spec = FaultSpec(site="s", kind="raise", only={"chunk": 0})
        assert spec.matches("s", {"chunk": 0})
        assert spec.matches("s", {"chunk": "0"})
        assert not spec.matches("s", {"chunk": 1})
        assert not spec.matches("s", {})  # missing key never matches
        assert not spec.matches("other", {"chunk": 0})

    def test_from_dict_round_trip_and_unknown_keys(self):
        spec = FaultSpec.from_dict(
            {"site": "s", "kind": "raise", "only": {"chunk": 0}}
        )
        assert spec.only == (("chunk", "0"),)
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"site": "s", "kind": "raise", "oops": 1})
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"kind": "raise"})


class TestInjector:
    def test_raise_kind_throws_injected_fault(self):
        injector = FaultInjector(
            [FaultSpec(site="test.site", kind="raise")], seed=CHAOS_SEED
        )
        with pytest.raises(InjectedFault) as excinfo:
            injector.trigger("test.site", attempt=0)
        assert excinfo.value.site == "test.site"
        assert injector.fired == [
            ("test.site", "raise", {"attempt": 0})
        ]

    def test_unmatched_site_is_a_no_op(self):
        injector = FaultInjector(
            [FaultSpec(site="test.site", kind="raise")], seed=CHAOS_SEED
        )
        injector.trigger("other.site")
        assert injector.fired == []

    def test_rate_decisions_are_deterministic(self):
        spec = FaultSpec(site="s", kind="raise", rate=0.5)
        one = FaultInjector([spec], seed=CHAOS_SEED)
        two = FaultInjector([spec], seed=CHAOS_SEED)
        decisions_one = [
            one._decides_to_fire(spec, "s", {"i": i}) for i in range(64)
        ]
        decisions_two = [
            two._decides_to_fire(spec, "s", {"i": i}) for i in range(64)
        ]
        assert decisions_one == decisions_two
        assert any(decisions_one) and not all(decisions_one)

    def test_delay_kind_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr("time.sleep", naps.append)
        injector = FaultInjector(
            [FaultSpec(site="s", kind="delay", seconds=2.5)], seed=CHAOS_SEED
        )
        injector.trigger("s")
        assert naps == [2.5]

    def test_firings_are_counted(self):
        registry = obs.MetricsRegistry()
        injector = FaultInjector(
            [FaultSpec(site="s", kind="raise")], seed=CHAOS_SEED
        )
        with obs.collecting(registry):
            with pytest.raises(InjectedFault):
                injector.trigger("s")
        counter = registry.counter("repro_fault_injections_total")
        assert counter.value(site="s", kind="raise") == 1


class TestCorruption:
    def test_corrupt_region_builds_a_constructible_bowtie(self):
        region = square()
        damaged = corrupt_region(region)
        assert damaged is not region
        assert isinstance(damaged, Region)
        # Constructible (no exception) yet invalid: the injected ring
        # self-intersects, which only the deep validity check sees.
        assert not damaged.polygons[0].is_simple()

    def test_non_region_passes_through(self):
        assert corrupt_region("not a region") == "not a region"

    def test_injector_corrupt_respects_site_and_only(self):
        injector = FaultInjector(
            [FaultSpec(site="ingest", kind="corrupt", only={"region_id": "b"})],
            seed=CHAOS_SEED,
        )
        region = square()
        assert injector.corrupt("ingest", region, region_id="a") is region
        damaged = injector.corrupt("ingest", region, region_id="b")
        assert damaged is not region


class TestInstallation:
    def test_sites_are_noops_without_a_spec(self):
        assert current_injector() is None
        with injecting(seed=CHAOS_SEED):
            current_injector().trigger("anywhere", attempt=0)  # must not raise
            region = square()
            assert current_injector().corrupt("anywhere", region) is region
        assert current_injector() is None

    def test_injecting_scope_installs_and_restores(self):
        outer = install_injector(FaultInjector([], seed=CHAOS_SEED))
        try:
            with injecting(
                FaultSpec(site="s", kind="raise"), seed=CHAOS_SEED
            ) as injector:
                assert current_injector() is injector
                with pytest.raises(InjectedFault):
                    current_injector().trigger("s")
            assert current_injector() is outer
        finally:
            uninstall_injector()
        assert current_injector() is None

    def test_env_var_arms_the_injector(self, monkeypatch):
        monkeypatch.setenv(
            ENV_FAULTS, json.dumps([{"site": "s", "kind": "raise"}])
        )
        monkeypatch.setenv(ENV_SEED, str(CHAOS_SEED))
        injector = current_injector()
        assert injector is not None
        assert injector.seed == CHAOS_SEED
        with pytest.raises(InjectedFault):
            current_injector().trigger("s")
        # Same raw value: the parsed injector is cached, not re-built.
        assert current_injector() is injector

    def test_env_var_parse_errors_are_loud(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULTS, "not json")
        with pytest.raises(ValueError, match=ENV_FAULTS):
            current_injector()

    def test_installed_injector_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(
            ENV_FAULTS, json.dumps([{"site": "s", "kind": "raise"}])
        )
        installed = install_injector(FaultInjector([], seed=CHAOS_SEED))
        try:
            assert current_injector() is installed
            current_injector().trigger("s")  # the env spec must not fire
        finally:
            uninstall_injector()
