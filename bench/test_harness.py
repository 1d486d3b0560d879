"""Self-tests of the benchmark harness.

Run with: python3 -m pytest bench/test_harness.py
"""

import json

import run

SMALL_BRUDNO = {"kind": "cli", "command": "verify-brudno", "preset": "z2-uniform", "n": 20_000, "k": 8,
                "seeds": [1, 2]}


def test_wrong_reference_digest_counts_as_failure():
    key = run.reference_key(SMALL_BRUDNO)
    wrong = run.run_child("brudno-z2", SMALL_BRUDNO, False, {"brudno-z2": {key: "0" * 64}})
    assert wrong["failure"].startswith("report digest differs")
    right = run.run_child("brudno-z2", SMALL_BRUDNO, False, {"brudno-z2": {key: wrong["digest"]}})
    assert right["failure"] is None


def test_wrong_exact_value_counts_as_failure():
    spec = {"kind": "exact", "preset": "z2-uniform", "horizons": [3, 1]}
    assert run.run_child("exact-z2", spec, False, {"exact-z2": {"1": 1.0, "3": 2.75}})["failure"] is None
    off = run.run_child("exact-z2", spec, False, {"exact-z2": {"1": 1.0, "3": 2.75 + 1e-6}})
    assert off["failure"].startswith("exact entropy at n=3")


def test_nonzero_exit_and_timeout_count_as_failures():
    crashed = run.run_child("brudno-z2", {**SMALL_BRUDNO, "preset": "no-such-preset"}, False, None)
    assert crashed["failure"].startswith("child exited with 1")
    timed_out = run.run_child("brudno-z2", SMALL_BRUDNO, False, None, timeout=0.01)
    assert timed_out["failure"].startswith("child timed out")


def test_tracing_changes_no_report_byte():
    plain = run.run_child("brudno-z2", SMALL_BRUDNO, False, None)
    traced = run.run_child("brudno-z2", SMALL_BRUDNO, True, None)
    assert plain["failure"] is None and traced["failure"] is None
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert {name for name, _ in run.PER_LAYER} - set(layers) == {"trace.overhead_s"}
    assert layers["coding.blocks"] == 2 * 20_000 // 8
    assert layers["fiber.exact_words"] == 4 ** 7


def test_benchmark_json_matches_the_harness():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


def test_setup_only_child_reports_set_up_time_alone():
    setup = run.run_child("brudno-z2", {**SMALL_BRUDNO, "setup_only": True}, False, None)
    assert setup["failure"] is None
    assert setup["setup_s"] > 0 and "ref_wall_s" not in setup
