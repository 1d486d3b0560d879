"""Command line harness.

Subcommands: verify-brudno, verify-ar, entropy, range, simulate.  Exit
codes: 0 on success, 1 when an asserted inequality or tolerance fails
(reports are still written), 2 on any library error (bad configuration,
model mismatch, resource cap, out of memory, unwritable report) as one
stderr line.  Reports are deterministic functions of (config, seeds).
verify-brudno, verify-ar and simulate sample and name each seed's path
once, to the largest horizon, and every (n, k) cell codes a prefix of it
(_seed_cells), as the theorem follows one driving sequence as n grows.
Seeds run in order, in the one process that writes the verdict, so a
run's CPU time and peak RSS are its own; rows are written in (n, k, seed)
order and stream (see _write_rows).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice
from pathlib import Path

from .actions import _spans, range_ratio_curve
from .coding import (
    ArDecompositionReport,
    BlockCodebookFamily,
    EstimatorReport,
    ar_decomposition_check,
    conditional_rate,
)
from .config import SYSTEM_PRESETS, ConfigError, ExperimentConfig, load_config, load_config_file
from .driving import sample_trajectory
from .errors import ResourceLimitError
from .fiber import OrbitName, emit_name, exact_averaged_entropy, exact_rate_or_none

def _write_rows(config: ExperimentConfig, stem: str, columns, rows) -> Path:
    """Write an iterable of rows, dicts keyed by columns, one row at a time.

    JSON reports keep the bytes of json.dumps(payload, indent=2,
    sort_keys=True) on the whole payload: its keys sort as columns, rows,
    schema, and rows are encoded a span at a time (actions._spans) and
    indented to their depth: one encode call per row would cost more than
    the rows, and one for the whole report would hold every row in memory.
    """
    config.out.mkdir(parents=True, exist_ok=True)
    schema = f"fiberlab.{stem}.v1"
    if config.format == "json":
        path = config.out / f"{stem}.json"
        encode = json.JSONEncoder(indent=2, sort_keys=True).encode
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(encode({"columns": list(columns)})[:-2] + ',\n  "rows": [')
            rows = iter(rows)
            for lo, hi in _spans():
                if not (batch := list(islice(rows, hi - lo))):
                    break
                # "[" + rows at depth 1 + "\n]", cut to the rows, one level deeper
                handle.write(("," if lo else "") + encode(batch)[1:-2].replace("\n", "\n  "))
            # lo is 0 here only when the first span found no rows
            handle.write("\n  ]" if lo else "]")
            handle.write(',\n  "schema": ' + encode(schema) + "\n}\n")
        return path
    path = config.out / f"{stem}.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# {schema}\n")
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def _write_summary(config: ExperimentConfig, stem: str, summary: dict) -> Path:
    config.out.mkdir(parents=True, exist_ok=True)
    path = config.out / f"{stem}_summary.json"
    payload = {"schema": f"fiberlab.{stem}_summary.v1", **summary}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _seed_cells(config: ExperimentConfig, seed: int, cells, code) -> list:
    """Sample and name seed's path once, to the largest horizon, and return
    code(prefix, family) for each (n, family) of cells, in order.

    The prefix is the path's first n letters, symbols and first visits, as
    views: none of them depends on the path's length, so it is the name of
    a path sampled at n.  One frame per seed: the path is freed before the
    next seed's is sampled.
    """
    name = emit_name(config.fiber, sample_trajectory(config.driving, config.horizons[-1], seed), seed)
    return [code(OrbitName(config.fiber, name.driving[:n], name.letters[:n], seed, name.first[:n]), family)
            for n, family in cells]


def _verify_grid(config: ExperimentConfig, code) -> list:
    """code(name, family) on every verify cell, in report row order (n, k, seed).

    One family per k is built before any path is sampled and shared by
    every cell: its count codes depend on the fiber system and d alone.
    """
    families = [BlockCodebookFamily(k, config.fiber, config.driving) for k in config.block_lengths]
    cells = [(n, family) for n in config.horizons for family in families]
    by_seed = [_seed_cells(config, seed, cells, code) for seed in config.seeds]
    return [report for cell in zip(*by_seed) for report in cell]


def cmd_verify_brudno(config: ExperimentConfig) -> int:
    config.check_codebook_cap()
    exact_by_k = {k: exact_rate_or_none(config.fiber, config.driving, k) for k in config.block_lengths}
    reports = _verify_grid(config, lambda name, family: conditional_rate(name, family, exact=exact_by_k[family.k]))
    ok = all(report.bounds_hold for report in reports)
    max_code_gap = 0.0
    max_cross_gap = 0.0
    for report in reports:
        if report.exact_rate is not None:
            max_code_gap = max(max_code_gap, abs(report.code_rate - report.exact_rate))
            if report.cross_entropy_rate is not None:
                max_cross_gap = max(max_cross_gap, abs(report.cross_entropy_rate - report.exact_rate))
    _write_rows(config, "brudno", EstimatorReport.COLUMNS, (report.to_csv_row() for report in reports))
    _write_summary(
        config,
        "brudno",
        {
            "cells": len(reports),
            "max_gap_code_vs_exact": max_code_gap,
            "max_gap_cross_vs_exact": max_cross_gap,
            "all_bounds_hold": ok,
        },
    )
    print(f"verify-brudno: {len(reports)} cells, max |code - exact| = {max_code_gap:.6g}, "
          f"bounds {'hold' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_verify_ar(config: ExperimentConfig) -> int:
    config.check_codebook_cap()
    reports = _verify_grid(config, ar_decomposition_check)
    worst = max((abs(r.residual) for r in reports), default=0.0)
    ok = worst <= config.tolerance
    _write_rows(config, "ar", ArDecompositionReport.COLUMNS, (report.to_csv_row() for report in reports))
    _write_summary(
        config,
        "ar",
        {"cells": len(reports), "max_abs_residual": worst, "tolerance": config.tolerance, "pass": bool(ok)},
    )
    print(f"verify-ar: {len(reports)} cells, max |residual| = {worst:.6g} "
          f"({'<=' if ok else '>'} tolerance {config.tolerance})")
    return 0 if ok else 1


def cmd_entropy(config: ExperimentConfig) -> int:
    rows = []
    for k in config.block_lengths:
        result = exact_averaged_entropy(config.fiber, config.driving, k)
        rows.append({"k": k, "H_k": result.bits, "h_k": result.rate})
    _write_rows(config, "entropy", ("k", "H_k", "h_k"), rows)
    print(f"entropy: {len(rows)} block lengths written")
    return 0


def cmd_range(config: ExperimentConfig) -> int:
    curve = range_ratio_curve(config.fiber.action_kind, config.driving, config.seeds, config.horizons)
    rows = [{"n": c, "mean_ratio": ratio} for c, ratio in curve]
    _write_rows(config, "range", ("n", "mean_ratio"), rows)
    print(f"range: {len(rows)} checkpoints written")
    return 0


def _dump(config: ExperimentConfig, name: OrbitName) -> Path:
    rows = (
        {
            "i": i,
            "alpha": config.driving.alphabet.symbols[int(a)],
            "omega": config.fiber.fiber_alphabet.symbols[int(w)],
        }
        for i, (a, w) in enumerate(zip(name.driving, name.letters))
    )
    return _write_rows(config, f"simulate_seed{name.seed}", ("i", "alpha", "omega"), rows)


def cmd_simulate(config: ExperimentConfig) -> int:
    n = config.horizons[-1]
    for seed in config.seeds:
        _seed_cells(config, seed, [(n, None)], lambda name, _: _dump(config, name))
    print(f"simulate: {len(config.seeds)} dump(s) of {n} steps written")
    return 0


COMMANDS = {
    "verify-brudno": cmd_verify_brudno,
    "verify-ar": cmd_verify_ar,
    "entropy": cmd_entropy,
    "range": cmd_range,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fiberlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--preset", type=str, default=None,
                       help=" | ".join(SYSTEM_PRESETS))
        p.add_argument("--seed", type=int, action="append", default=None, help="repeatable")
        p.add_argument("--n", type=int, default=None, help="horizon override")
        p.add_argument("--k", type=int, default=None, help="block length override")
        p.add_argument("--out", type=str, default=None, help="report directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--tolerance", type=float, default=None, help="bits")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        "preset": args.preset,
        "seeds": args.seed,
        "horizons": [args.n] if args.n is not None else None,
        "block_lengths": [args.k] if args.k is not None else None,
        "out": args.out,
        "format": args.format,
        "tolerance": args.tolerance,
    }
    if args.config is not None:
        return load_config_file(args.config, overrides)
    if args.preset is None:
        raise ConfigError("either --config or --preset is required")
    return load_config({}, overrides)


def main(argv=None) -> int:
    """Run one subcommand; every library, memory or report-writing error ends as one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_config_from_args(args))
    except ConfigError as exc:
        print(f"fiberlab: configuration error: {exc}", file=sys.stderr)
    except (ValueError, ResourceLimitError, OverflowError, OSError) as exc:
        print(f"fiberlab: {exc}", file=sys.stderr)
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError names nothing
        print(f"fiberlab: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
