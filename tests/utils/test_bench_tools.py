"""Tests for the benchmark tooling: compare_bench and the results merger.

``benchmarks/`` is not a package, so the scripts are loaded by path; these
tests are the tier-1 coverage of the CI ``perf-smoke`` gate's pass/fail
logic.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.utils.bench_results import merge_section

_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


def _load_script(name: str):
    path = os.path.abspath(os.path.join(_BENCH_DIR, f"{name}.py"))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare_bench():
    return _load_script("compare_bench")


def _bench_file(path, results, *, bare=False):
    payload = {"schema": 1, "results": results}
    document = payload if bare else {"scale_bench": payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return str(path)


class TestCompareBench:
    def test_ok_and_regression_detection(self, compare_bench, capsys):
        baseline = {"a": {"events_per_sec": 100_000}, "b": {"events_per_sec": 100_000}}
        candidate = {"a": {"events_per_sec": 90_000}, "b": {"events_per_sec": 60_000}}
        regressions = compare_bench.compare(baseline, candidate, max_regression=0.25)
        out = capsys.readouterr().out
        assert regressions == 1
        assert "[ok]" in out and "[REGRESSION]" in out

    def test_disjoint_presets_raise_instead_of_counting_a_regression(self, compare_bench):
        with pytest.raises(ValueError):
            compare_bench.compare(
                {"a": {"events_per_sec": 1}}, {"b": {"events_per_sec": 1}},
                max_regression=0.25,
            )

    def test_main_exit_codes(self, compare_bench, tmp_path, capsys):
        base = _bench_file(tmp_path / "base.json", {"a": {"events_per_sec": 100_000}})
        good = _bench_file(tmp_path / "good.json", {"a": {"events_per_sec": 99_000}})
        bad = _bench_file(tmp_path / "bad.json", {"a": {"events_per_sec": 10_000}})
        disjoint = _bench_file(tmp_path / "dj.json", {"z": {"events_per_sec": 1}})
        assert compare_bench.main([base, good]) == 0
        assert compare_bench.main([base, bad]) == 1
        assert compare_bench.main([base, disjoint]) == 2
        err = capsys.readouterr().err
        assert "share no presets" in err
        assert "regressed" in err

    def test_combine_candidates_best_takes_the_fastest_run(self, compare_bench):
        runs = [
            {"a": {"events_per_sec": 90_000}, "b": {"events_per_sec": 50_000}},
            {"a": {"events_per_sec": 110_000}},
            {"a": {"events_per_sec": 100_000}, "b": {"events_per_sec": 70_000}},
        ]
        combined = compare_bench.combine_candidates(runs)
        assert combined["a"]["events_per_sec"] == 110_000
        assert combined["b"]["events_per_sec"] == 70_000

    def test_combine_candidates_median_is_noise_resistant(self, compare_bench):
        runs = [
            {"a": {"events_per_sec": 90_000}},
            {"a": {"events_per_sec": 1_000_000}},  # one wild outlier
            {"a": {"events_per_sec": 100_000}},
        ]
        combined = compare_bench.combine_candidates(runs, stat="median")
        assert combined["a"]["events_per_sec"] == 100_000

    def test_combine_candidates_rejects_unknown_stat(self, compare_bench):
        with pytest.raises(ValueError):
            compare_bench.combine_candidates([{}], stat="mean")

    def test_main_combines_multiple_candidates_best_of_n(
        self, compare_bench, tmp_path, capsys
    ):
        base = _bench_file(tmp_path / "base.json", {"a": {"events_per_sec": 100_000}})
        slow = _bench_file(tmp_path / "slow.json", {"a": {"events_per_sec": 10_000}})
        fast = _bench_file(tmp_path / "fast.json", {"a": {"events_per_sec": 99_000}})
        # Best-of-N: one good run among several rescues the gate...
        assert compare_bench.main([base, slow, fast]) == 0
        # ...median does not, when most runs are slow.
        assert compare_bench.main([base, slow, slow, fast, "--stat", "median"]) == 1
        capsys.readouterr()

    def test_fleet_bench_section_is_gated(self, compare_bench, tmp_path):
        path = tmp_path / "fleet.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fleet_bench": {
                        "schema": 1,
                        "results": {"fleet_serial": {"events_per_sec": 42}},
                    }
                },
                handle,
            )
        assert compare_bench.load_results(str(path)) == {
            "fleet_serial": {"events_per_sec": 42}
        }

    def test_bare_payload_files_load(self, compare_bench, tmp_path):
        bare = _bench_file(
            tmp_path / "bare.json", {"a": {"events_per_sec": 5}}, bare=True
        )
        assert compare_bench.load_results(bare) == {"a": {"events_per_sec": 5}}

    def test_files_without_results_are_rejected(self, compare_bench, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"unrelated": 1}))
        with pytest.raises(ValueError):
            compare_bench.load_results(str(path))

    def test_loadgen_bench_section_is_gated(self, compare_bench, tmp_path):
        path = tmp_path / "loadgen.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "loadgen_bench": {
                        "schema": 1,
                        "results": {"loadgen_replay": {"events_per_sec": 7}},
                    }
                },
                handle,
            )
        assert compare_bench.load_results(str(path)) == {
            "loadgen_replay": {"events_per_sec": 7}
        }


def _fleet_document(cpu_count, speedup):
    return {
        "fleet_bench": {
            "schema": 1,
            "cpu_count": cpu_count,
            "sharding_speedup": speedup,
            "results": {"fleet_serial": {"events_per_sec": 100}},
        }
    }


class TestShardingSpeedupGate:
    def test_skipped_on_a_one_cpu_box(self, compare_bench, capsys):
        # An IPC-bound <1x speedup on a 1-CPU machine is not a regression.
        failures = compare_bench.check_sharding_speedup([_fleet_document(1, 0.87)])
        out = capsys.readouterr().out
        assert failures == 0
        assert "SKIPPED" in out and "cpu_count=1" in out

    def test_enforced_on_a_multi_core_box(self, compare_bench, capsys):
        assert compare_bench.check_sharding_speedup([_fleet_document(8, 1.9)]) == 0
        assert compare_bench.check_sharding_speedup([_fleet_document(8, 0.8)]) == 1
        out = capsys.readouterr().out
        assert "[ok]" in out and "[TOO SLOW]" in out

    def test_best_candidate_wins_and_skips_do_not_count(self, compare_bench, capsys):
        documents = [
            _fleet_document(1, 0.5),  # skipped, must not drag the gate down
            _fleet_document(8, 0.9),
            _fleet_document(8, 1.4),
        ]
        assert compare_bench.check_sharding_speedup(documents) == 0
        capsys.readouterr()

    def test_documents_without_fleet_bench_pass_vacuously(self, compare_bench):
        assert compare_bench.check_sharding_speedup([{"scale_bench": {}}]) == 0

    def test_main_applies_the_gate_to_candidates(
        self, compare_bench, tmp_path, capsys
    ):
        base = _bench_file(tmp_path / "base.json", {"a": {"events_per_sec": 100}})
        document = {
            "scale_bench": {"schema": 1, "results": {"a": {"events_per_sec": 100}}},
        }
        document.update(_fleet_document(8, 0.7))
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(document))
        assert compare_bench.main([base, str(slow)]) == 1
        document.update(_fleet_document(1, 0.7))
        skipped = tmp_path / "skipped.json"
        skipped.write_text(json.dumps(document))
        assert compare_bench.main([base, str(skipped)]) == 0
        capsys.readouterr()


class TestMergeSection:
    def test_preserves_unrelated_sections(self, tmp_path):
        path = str(tmp_path / "results.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pre_refactor_reference": {"keep": True}}, handle)
        merge_section(path, "scale_bench", {"schema": 1})
        merge_section(path, "experiment_bench", {"schema": 1})
        merge_section(path, "scale_bench", {"schema": 2})
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["pre_refactor_reference"] == {"keep": True}
        assert document["experiment_bench"] == {"schema": 1}
        assert document["scale_bench"] == {"schema": 2}

    def test_replaces_non_object_documents(self, tmp_path):
        path = str(tmp_path / "results.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all")
        merge_section(path, "scale_bench", {"schema": 1})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"scale_bench": {"schema": 1}}

    def test_creates_missing_files(self, tmp_path):
        path = str(tmp_path / "fresh.json")
        merge_section(path, "scale_bench", {"ok": True})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"scale_bench": {"ok": True}}
