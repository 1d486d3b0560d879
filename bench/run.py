"""fiberlab benchmark driver.

Every measured run is one fresh child process (bench/child.py) started by
this driver, with a pinned environment, on the working tree under src/.

    python3 bench/run.py --workload brudno-z2 --seed 3 --seconds 30 --trace 0
        Repeat one workload in fresh children for the given seconds; print
        per-metric median, quartiles and sample count, then one JSON line
        with the end-to-end metrics (--trace 0) or the per-layer metrics
        (--trace 1, traced children alternating with untraced ones).
    python3 bench/run.py --suite --rounds 10 [--trace 1]
        Interleave all workloads child by child for the given rounds and
        write bench/out/suite.json with the environment beside the results.
    python3 bench/run.py --record
        Run every recorded input once and rewrite bench/references.json.

While a child runs, this driver runs a fixed calibration loop on the same
CPU.  The host's speed drifts by up to 2x within seconds; the loop sees the
same drift as the child, so every time a child reports (its CPU seconds) is
rescaled to a reference speed: multiplied by REFERENCE_CHUNK_S over the
CPU time one calibration chunk took meanwhile.

Each child's outputs are checked against bench/references.json: the
sha256 of the report files for CLI workloads, every value within 1e-9 for
the exact-entropy workload, and decode(encode(name)) == name in traced
runs.  A child that crashes, times out or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

# Inputs per benchmark seed come from a table of SEED_SLOTS recorded inputs,
# so every input a seed can select has a reference digest.
SEED_SLOTS = 20
HORIZON = 200_000
BLOCK = 8
EXACT_HORIZONS = tuple(range(1, 12))
VALUE_TOLERANCE = 1e-9
CHILD_TIMEOUT = 90.0
# Children that stop after set-up, started at the beginning of each run, so
# setup_s is a median over several set-ups even when few workload children fit.
SETUP_REPEATS = 8

# One calibration chunk is a fixed mix of hashing, tuple building and dict
# inserts, like fiberlab's inner loops.  A chunk that takes
# REFERENCE_CHUNK_S of CPU time defines the reference speed.
CALIBRATION_ROUNDS = 2000
REFERENCE_CHUNK_S = 0.002

WORKLOADS = ("brudno-z2", "ar-f2", "exact-z2")

END_TO_END = (("ref_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("driving.sample_trajectory_s", "s"),
    ("driving.block_code_details_s", "s"),
    ("actions.visit_record_s", "s"),
    ("actions.distinct_coordinates", "count"),
    ("fiber.emit_name_s", "s"),
    ("fiber.emit_name_rss_growth_mb", "MB"),
    ("fiber.information_function_s", "s"),
    ("fiber.exact_averaged_entropy_s", "s"),
    ("fiber.exact_words", "count"),
    ("coding.codebook_build_s", "s"),
    ("coding.contexts", "count"),
    ("coding.pattern_codes", "count"),
    ("coding.codewords", "count"),
    ("coding.blocks", "count"),
    ("coding.context_hit_ratio", "ratio"),
    ("coding.encode_cold_s", "s"),
    ("coding.encode_s", "s"),
    ("coding.cross_entropy_s", "s"),
    ("coding.joint_coder_s", "s"),
    ("coding.decode_s", "s"),
    ("cli.other_s", "s"),
    ("trace.overhead_s", "s"),
)


def make_spec(workload: str, seed: int) -> dict:
    """The inputs of one workload for one benchmark seed."""
    slot = seed % SEED_SLOTS
    if workload == "brudno-z2":
        return {"kind": "cli", "command": "verify-brudno", "preset": "z2-uniform", "n": HORIZON, "k": BLOCK,
                "seeds": [2 * slot + 1, 2 * slot + 2]}
    if workload == "ar-f2":
        return {"kind": "cli", "command": "verify-ar", "preset": "f2-markov", "n": HORIZON, "k": BLOCK,
                "seeds": [slot + 1]}
    if workload == "exact-z2":
        horizons = list(EXACT_HORIZONS)
        random.Random(seed).shuffle(horizons)
        return {"kind": "exact", "preset": "z2-uniform", "horizons": horizons}
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(spec: dict) -> str:
    seeds = ",".join(str(s) for s in spec["seeds"])
    return f"{spec['command']} {spec['preset']} n={spec['n']} k={spec['k']} seeds={seeds}"


def report_digest(directory: Path) -> str:
    """sha256 over the report files: sorted names, each name then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


PINNED_ENV = {
    "FIBERLAB_MAX_CELLS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    return {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}


def judge(workload: str, spec: dict, returncode: int, result: dict | None, reports: Path,
          references: dict | None) -> str | None:
    """Why the run failed its correctness check, or None when it passed.

    references None skips the comparison with recorded outputs.
    """
    if returncode != 0:
        return f"child exited with {returncode}"
    if result is None:
        return "child wrote no result"
    if spec.get("setup_only"):
        return None
    if result["exit"] != 0:
        return f"command exited with {result['exit']}"
    if references is not None and spec["kind"] == "cli":
        expected = references.get(workload, {}).get(reference_key(spec))
        if not reports.is_dir() or report_digest(reports) != expected:
            return "report digest differs from the reference"
    elif references is not None:
        expected = references.get(workload, {})
        for n, bits in result["values"].items():
            if n not in expected or abs(bits - expected[n]) > VALUE_TOLERANCE:
                return f"exact entropy at n={n} differs from the reference"
    if result.get("roundtrip_ok") is False:
        return "decode(encode(name)) differs from the name"
    return None


def calibration_chunk() -> None:
    word, seen = b"fiberlab", {}
    for i in range(CALIBRATION_ROUNDS):
        word = hashlib.blake2b(word).digest()
        seen[(i, word[:2])] = i


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU, where
    the child and the calibration loop share the CPU's speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrated_wait(proc: subprocess.Popen, timeout: float) -> float | None:
    """Run calibration chunks until `proc` ends; the CPU seconds one chunk
    took, or None when `proc` is still running after `timeout` seconds."""
    deadline = time.monotonic() + timeout
    chunks, start = 0, time.process_time()
    while time.monotonic() < deadline:
        calibration_chunk()
        chunks += 1
        if proc.poll() is not None:
            return (time.process_time() - start) / chunks
    return None


def run_child(workload: str, spec: dict, trace: bool, references: dict | None, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run one fresh child and judge it.  Returns its measurements, scaled
    to the reference speed, and a failure reason (None when correct);
    crashes and timeouts are failures."""
    pin_to_one_cpu()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT / "work"))
    try:
        full = {**spec, "trace": trace, "work": str(work)}
        with open(work / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(full)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr,
            )
            try:
                chunk_s = calibrated_wait(proc, timeout)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if chunk_s is None:
            return {"failure": f"child timed out after {timeout:.0f} s"}
        result_path = work / "result.json"
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else None
        failure = judge(workload, spec, proc.returncode, result, work / "reports", references)
        stderr_lines = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
        if failure is not None and stderr_lines:
            failure += ": " + stderr_lines[-1]
        if result is None:
            return {"failure": failure}
        scale = REFERENCE_CHUNK_S / chunk_s
        measured = {"failure": failure, "setup_s": result["setup_cpu_s"] * scale, "chunk_ms": 1000 * chunk_s}
        if "cpu_s" in result:
            measured["ref_wall_s"] = result["cpu_s"] * scale
            measured["peak_rss_mb"] = result["peak_rss_mb"]
            measured["wall_s"] = result["wall_s"]
        if "layers" in result:
            measured["layers"] = {
                name: value * scale if name.endswith("_s") else value for name, value in result["layers"].items()
            }
        if (work / "reports").is_dir():
            measured["digest"] = report_digest(work / "reports")
        if "values" in result:
            measured["values"] = result["values"]
        return measured
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.is_file() else {}


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _usable(children: list[dict]) -> list[dict]:
    """Correct children, or every child that measured anything when none was correct."""
    measured = [c for c in children if "setup_s" in c]
    return [c for c in measured if c["failure"] is None] or measured


HOST = (("wall_s", "s"), ("chunk_ms", "ms"))


def host(children: list[dict]) -> dict:
    """The raw wall time of the timed region and the calibration chunk's
    CPU time, before rescaling: how fast the host ran."""
    measured = [c for c in children if "wall_s" in c]
    return {name: summary([c[name] for c in measured]) for name, _ in HOST} if measured else {}


def end_to_end(untraced: list[dict], setups: list[dict]) -> dict:
    usable = _usable(untraced)
    if not usable:
        return {}
    stats = {name: summary([c[name] for c in usable]) for name, _ in END_TO_END if name != "setup_s"}
    stats["setup_s"] = summary([c["setup_s"] for c in _usable(setups + untraced)])
    return stats


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    plain, usable = _usable(untraced), [c for c in _usable(traced) if "layers" in c]
    if not plain or not usable:
        return {}
    stats = {name: summary([c["layers"][name] for c in usable]) for name, _ in PER_LAYER if name != "trace.overhead_s"}
    overhead = statistics.median(c["ref_wall_s"] for c in usable) - statistics.median(c["ref_wall_s"] for c in plain)
    stats["trace.overhead_s"] = summary([overhead])
    return stats


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "env": PINNED_ENV}


def print_table(title: str, stats: dict, units: dict) -> None:
    print(title)
    for name, s in stats.items():
        print(f"  {name:32s} median {s['median']:.6g} {units[name]}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")


def measure(workload: str, seed: int, seconds: float, trace: bool, references: dict):
    """Fresh children of one workload for about `seconds`.  Untraced runs
    start with SETUP_REPEATS children that stop after set-up; traced runs
    alternate untraced and traced children and need one of each.

    No child starts when the last one, repeated, would end more than half
    its duration past the deadline, so a run overshoots by at most half a child.
    """
    spec = make_spec(workload, seed)
    deadline = time.monotonic() + seconds
    setup_spec = {**spec, "setup_only": True}
    setups = [] if trace else [run_child(workload, setup_spec, False, references) for _ in range(SETUP_REPEATS)]
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        with_trace = trace and len(traced) < len(untraced)
        started = time.monotonic()
        (traced if with_trace else untraced).append(run_child(workload, spec, with_trace, references))
        now = time.monotonic()
        if now + (now - started) / 2 >= deadline and (traced or not trace):
            return setups, untraced, traced


def cmd_workload(args) -> int:
    references = load_references()
    setups, untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), references)
    children = setups + untraced + traced
    failures = [c["failure"] for c in children if c["failure"] is not None]
    for reason in sorted(set(failures)):
        print(f"failed: {reason}", file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    stats = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    if not stats:
        print("run.py: no child produced a measurement", file=sys.stderr)
        return 1
    units = dict(wanted)
    print(json.dumps({"environment": environment()}))
    print_table(f"{args.workload} seed {args.seed}: {len(children)} children, {len(failures)} failed", stats, units)
    print_table("host, not rescaled", host(children), dict(HOST))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(children),
        "failed": len(failures),
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in wanted},
    }))
    return 0


def cmd_suite(args) -> int:
    """All workloads, interleaved child by child, one round per seed."""
    references = load_references()
    names = list(WORKLOADS)
    children: dict[str, dict[str, list]] = {w: {"untraced": [], "traced": []} for w in names}
    for r in range(args.rounds):
        seed = args.seed + r
        for workload in names[r % len(names):] + names[: r % len(names)]:
            spec = make_spec(workload, seed)
            children[workload]["untraced"].append(run_child(workload, spec, False, references))
            if args.trace:
                children[workload]["traced"].append(run_child(workload, spec, True, references))
    results = {}
    units = dict(END_TO_END + PER_LAYER + HOST + (("failed_frac", "ratio"),))
    for workload in names:
        runs = children[workload]["untraced"] + children[workload]["traced"]
        failures = [c["failure"] for c in runs if c["failure"] is not None]
        stats = end_to_end(children[workload]["untraced"], [])
        if args.trace:
            stats.update(per_layer(children[workload]["untraced"], children[workload]["traced"]))
        stats.update(host(runs))
        stats["failed_frac"] = summary([len(failures) / len(runs)])
        results[workload] = {"attempted": len(runs), "failures": failures,
                             "metrics": {k: {**v, "unit": units[k]} for k, v in stats.items()}}
        print_table(f"{workload}: {len(runs)} children, {len(failures)} failed", stats, units)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "suite.json"
    path.write_text(json.dumps({"environment": environment(), "rounds": args.rounds, "first_seed": args.seed,
                                "workloads": results}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(not r["failures"] for r in results.values()) else 1


def cmd_record(args) -> int:
    """Run each input a seed can select once and record its outputs."""
    references: dict = {}
    for workload in WORKLOADS:
        slots = range(1) if make_spec(workload, 0)["kind"] == "exact" else range(SEED_SLOTS)
        for slot in slots:
            spec = make_spec(workload, slot)
            child = run_child(workload, spec, False, None, timeout=600.0)
            if child["failure"] is not None:
                print(f"run.py: recording {workload} slot {slot} failed: {child['failure']}", file=sys.stderr)
                return 1
            if spec["kind"] == "cli":
                references.setdefault(workload, {})[reference_key(spec)] = child["digest"]
            else:
                references[workload] = child["values"]
            print(f"recorded {workload} slot {slot} ({child['ref_wall_s']:.2f} s)")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true", help="interleave all workloads")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--record", action="store_true", help="rewrite bench/references.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fiberlab" / "__init__.py").is_file():
        print(f"run.py: no fiberlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    if args.record:
        return cmd_record(args)
    if args.suite:
        return cmd_suite(args)
    if args.workload is None:
        parser.error("one of --workload, --suite or --record is required")
    return cmd_workload(args)


if __name__ == "__main__":
    sys.exit(main())
