"""Tests for the self-gate of ``benchmarks/bench_fleet.py``.

The script fails when serial and sharded fleet summaries differ, and on a
host with two or more CPUs when sharding is slower than serial.
``benchmarks/`` is not a package, so the script is loaded by path.
"""

from __future__ import annotations

import importlib.util
import os
import time

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "bench_fleet.py")


@pytest.fixture(scope="module")
def bench_fleet():
    spec = importlib.util.spec_from_file_location("bench_fleet", os.path.abspath(_SCRIPT))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_speedup_is_not_gated_on_one_cpu(bench_fleet):
    # Workers time-share one core, so a <1x speedup there is not a regression.
    assert bench_fleet.sharding_failures("{}", "{}", 0.87, 1) == []
    assert bench_fleet.sharding_failures("{}", "{}", 0.87, None) == []


def test_sharding_slower_than_serial_fails_on_two_or_more_cpus(bench_fleet):
    assert bench_fleet.sharding_failures("{}", "{}", 1.18, 2) == []
    assert bench_fleet.sharding_failures("{}", "{}", 1.0, 8) == []
    failures = bench_fleet.sharding_failures("{}", "{}", 0.8, 2)
    assert len(failures) == 1 and "slower than serial" in failures[0]


@pytest.mark.parametrize("cpu_count", [1, 4])
def test_differing_summaries_fail_on_any_host(bench_fleet, cpu_count):
    failures = bench_fleet.sharding_failures('{"completed": 1}', '{"completed": 2}', 1.5, cpu_count)
    assert failures == ["serial and sharded fleet summaries differ"]


@pytest.fixture
def smoke_bench(bench_fleet, monkeypatch):
    """The script at smoke scale, with one timed repetition per mode."""
    monkeypatch.setitem(bench_fleet.PRESETS, "small", "smoke")
    return lambda: bench_fleet.main(["--preset", "small", "--repeats", "1", "--jobs", "2"])


def _patch_sharded_fleet(bench_fleet, monkeypatch, change):
    """Route the sharded mode's ``run_fleet`` calls through ``change``."""
    run_fleet = bench_fleet.run_fleet

    def patched(scenario, *, runner=None):
        outcome = run_fleet(scenario, runner=runner)
        return outcome if runner is None else change(outcome)

    monkeypatch.setattr(bench_fleet, "run_fleet", patched)


def test_main_passes_on_identical_summaries(bench_fleet, smoke_bench, monkeypatch, capsys):
    monkeypatch.setattr(bench_fleet.os, "cpu_count", lambda: 1)
    assert smoke_bench() == 0
    assert "not gated on one CPU" in capsys.readouterr().out


def test_main_fails_when_summaries_differ(bench_fleet, smoke_bench, monkeypatch):
    monkeypatch.setattr(bench_fleet.os, "cpu_count", lambda: 1)

    def drop_one(outcome):
        outcome.summary["completed"] -= 1
        return outcome

    _patch_sharded_fleet(bench_fleet, monkeypatch, drop_one)
    assert smoke_bench() == 1


@pytest.mark.parametrize("cpu_count, status", [(1, 0), (2, 1)])
def test_main_fails_when_sharding_is_slower_on_two_cpus(
    bench_fleet, smoke_bench, monkeypatch, cpu_count, status
):
    monkeypatch.setattr(bench_fleet.os, "cpu_count", lambda: cpu_count)

    def stall(outcome):
        time.sleep(0.25)
        return outcome

    _patch_sharded_fleet(bench_fleet, monkeypatch, stall)
    assert smoke_bench() == status
