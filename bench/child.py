"""One benchmark run in a fresh process.

Usage: python3 bench/child.py SPEC_JSON

The spec names the run kind ("cli" or "exact"), its inputs, whether to
trace, whether to stop after set-up and the work directory.  The child
imports fiberlab and validates the config (set-up), runs the workload once
(the timed region) and writes WORK/result.json.  The parent judges
correctness and rescales the times; this file only measures.

Times are this process's CPU seconds (time.process_time), not wall time:
the parent runs a calibration loop on the same CPU while the child runs,
so wall time would count the loop's share as well.

A traced run wraps the public functions that fiberlab.cli, fiberlab.coding
and fiberlab.fiber look up at call time, so spans nest exactly as the calls
do and no program file is edited.  After the command returns, with the
wrappers removed, it replays single layers on the run's own orbit names:
the coordinate walk, a cold codebook build in first-occurrence order, a
warm encode and a decode round trip.  Replays are timed one by one and lie
outside the timed region.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory as [label, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.rss_growth: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, modules, name: str, label: str, rss: bool = False, results: list | None = None):
        """Replace `name` in every module by one traced wrapper of the original.

        rss records the largest rise of the process's peak RSS across one
        call; results collects every return value.
        """
        original = getattr(modules[0], name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [label, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            before = _peak_rss_mb() if rss else 0.0
            span[2] = time.process_time()
            try:
                value = original(*args, **kwargs)
            finally:
                span[3] = time.process_time()
                self._stack.pop()
            if rss:
                growth = _peak_rss_mb() - before
                self.rss_growth[label] = max(self.rss_growth.get(label, 0.0), growth)
            if results is not None:
                results.append(value)
            return value

        for module in modules:
            self._restore.append((module, name, getattr(module, name)))
            setattr(module, name, traced)

    def unwrap(self):
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Per label: span durations minus the part their child spans cover."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[1] is not None:
                own[span[1]] -= span[3] - span[2]
        totals: dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def root_time(self) -> float:
        return sum(span[3] - span[2] for span in self.spans if span[1] is None)


def _driving_words(driving_spec, length: int) -> int:
    """Positive-probability driving words of one length, by transfer matrix.

    With length n - 1 this is the number of leaves the exact entropy's
    depth-first search over driving words visits for horizon n.
    """
    size = driving_spec.alphabet.size
    if length == 0:
        return 1
    counts = [1 if q > 0 else 0 for q in driving_spec.pi]
    for _ in range(length - 1):
        counts = [sum(counts[a] for a in range(size) if driving_spec.Pi[a][b] > 0) for b in range(size)]
    return sum(counts)


def _timed(fn, *args):
    start = time.process_time()
    value = fn(*args)
    return value, time.process_time() - start


def _replay(names, k: int, fiber_spec, driving_spec) -> tuple[dict, bool]:
    """Single-layer replays on the run's own orbit names, untraced."""
    from fiberlab import actions, coding

    out = dict.fromkeys(
        ("actions.visit_record_s", "actions.distinct_coordinates", "coding.codebook_build_s", "coding.contexts",
         "coding.pattern_codes", "coding.codewords", "coding.blocks", "coding.encode_s", "coding.decode_s"), 0
    )
    roundtrip_ok = True
    for name in names:
        record, seconds = _timed(actions.visit_record, fiber_spec.action_kind, name.driving)
        out["actions.visit_record_s"] += seconds
        out["actions.distinct_coordinates"] += record.distinct_count

        m = len(name) // k
        contexts = list(dict.fromkeys(tuple(name.driving[i * k : (i + 1) * k].tolist()) for i in range(m)))
        family = coding.BlockCodebookFamily(k, fiber_spec, driving_spec)
        books, seconds = _timed(lambda: [family.codebook_for(u) for u in contexts])
        out["coding.codebook_build_s"] += seconds
        shared = {id(book): book for book in books}.values()
        out["coding.contexts"] += len(contexts)
        out["coding.pattern_codes"] += len(shared)
        out["coding.codewords"] += sum(len(book.entries) for book in shared)
        out["coding.blocks"] += m

        stream, seconds = _timed(coding.encode, name, family)
        out["coding.encode_s"] += seconds
        letters, seconds = _timed(coding.decode, stream, name.driving, family)
        out["coding.decode_s"] += seconds
        roundtrip_ok &= bool((letters == name.letters).all())
    blocks = out["coding.blocks"]
    out["coding.context_hit_ratio"] = 1.0 - out["coding.contexts"] / blocks if blocks else 0.0
    return out, roundtrip_ok


def _span_layers(tracer: Tracer, cpu: float, exact_results, driving_spec) -> dict:
    own = tracer.self_times()
    return {
        "driving.sample_trajectory_s": own.get("driving.sample_trajectory", 0.0),
        "driving.block_code_details_s": own.get("driving.block_code_details", 0.0),
        "fiber.emit_name_s": own.get("fiber.emit_name", 0.0),
        "fiber.emit_name_rss_growth_mb": tracer.rss_growth.get("fiber.emit_name", 0.0),
        "fiber.information_function_s": own.get("fiber.information_function", 0.0),
        "fiber.exact_averaged_entropy_s": own.get("fiber.exact_averaged_entropy", 0.0),
        "fiber.exact_words": sum(_driving_words(driving_spec, r.n - 1) for r in exact_results),
        "coding.encode_cold_s": own.get("coding.encode_cold", 0.0),
        "coding.cross_entropy_s": own.get("coding.pair_counts", 0.0) + own.get("coding.conditional_rate", 0.0),
        "coding.joint_coder_s": own.get("coding.ar_decomposition_check", 0.0),
        "cli.other_s": cpu - tracer.root_time(),
    }


def run(spec: dict) -> dict:
    from fiberlab import cli, coding, config, fiber

    if spec["kind"] == "cli":
        reports = str(Path(spec["work"]) / "reports")
        validated = config.load_config({}, {
            "preset": spec["preset"], "horizons": [spec["n"]], "block_lengths": [spec["k"]],
            "seeds": spec["seeds"], "out": reports,
        })
        driving_spec, fiber_spec = validated.driving, validated.fiber
        argv = [spec["command"], "--preset", spec["preset"], "--n", str(spec["n"]), "--k", str(spec["k"])]
        for seed in spec["seeds"]:
            argv += ["--seed", str(seed)]
        argv += ["--out", reports]
    else:
        driving_spec, fiber_spec = config.system_preset(spec["preset"])

    tracer = Tracer() if spec["trace"] else None
    names: list = []
    exact_results: list = []
    if tracer is not None:
        tracer.wrap([cli, coding], "sample_trajectory", "driving.sample_trajectory")
        tracer.wrap([coding], "block_code_details", "driving.block_code_details")
        tracer.wrap([cli, coding], "emit_name", "fiber.emit_name", rss=True, results=names)
        tracer.wrap([coding], "information_function", "fiber.information_function")
        tracer.wrap([cli, fiber], "exact_averaged_entropy", "fiber.exact_averaged_entropy", results=exact_results)
        tracer.wrap([coding], "encode", "coding.encode_cold")
        tracer.wrap([coding], "pair_counts", "coding.pair_counts")
        tracer.wrap([cli, coding], "conditional_rate", "coding.conditional_rate")
        tracer.wrap([cli], "ar_decomposition_check", "coding.ar_decomposition_check")
    result: dict = {"setup_cpu_s": time.process_time()}
    if spec.get("setup_only"):
        return result

    start, start_cpu = time.perf_counter(), time.process_time()
    if spec["kind"] == "cli":
        result["exit"] = cli.main(argv)
    else:
        result["exit"] = 0
        result["values"] = {
            str(n): fiber.exact_averaged_entropy(fiber_spec, driving_spec, n).bits for n in spec["horizons"]
        }
    cpu = time.process_time() - start_cpu
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = cpu
    result["peak_rss_mb"] = _peak_rss_mb()

    if tracer is not None:
        tracer.unwrap()
        layers = _span_layers(tracer, cpu, exact_results, driving_spec)
        replay, result["roundtrip_ok"] = _replay(names, spec.get("k", 1), fiber_spec, driving_spec)
        layers.update(replay)
        result["layers"] = layers
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    Path(spec["work"], "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
