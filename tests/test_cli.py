import csv
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberlab import BlockCodebookFamily, ar_decomposition_check, conditional_rate, emit_name, sample_trajectory
from fiberlab.cli import COMMANDS, cmd_entropy, main
from fiberlab.config import MAX_HORIZON, ConfigError, ExperimentConfig, load_config, system_preset
from fiberlab.driving import driving_preset
from fiberlab.fiber import exact_rate_or_none


def run(args):
    return main(list(args))


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_system_presets_expand():
    for name in ("free-monoid-uniform", "z2-uniform", "f2-markov"):
        driving, fiber = system_preset(name)
        assert driving == driving_preset(name)
        assert driving.alphabet.size in (2, 4)
        assert fiber.fiber_alphabet.size == 2
    with pytest.raises(ConfigError):
        system_preset("nope")


def test_load_config_validation():
    base = {"preset": "z2-uniform", "horizons": [100], "block_lengths": [2], "seeds": [1]}
    load_config(base)
    with pytest.raises(ConfigError):
        load_config({**base, "horizons": [100, 50]})  # not ascending
    with pytest.raises(ConfigError):
        load_config({**base, "horizons": [10 ** 8]})  # horizon cap
    # (4*2)**9 > 2**24 is refused by the block coders' commands, not on loading
    with pytest.raises(ConfigError, match=r"8\*\*9 > 2\*\*24"):
        load_config({**base, "block_lengths": [9]}).check_codebook_cap()
    with pytest.raises(ConfigError):
        load_config({**base, "seeds": [-1]})
    with pytest.raises(ConfigError):
        load_config({**base, "format": "xml"})
    with pytest.raises(ConfigError):
        load_config({})
    # values that int() or a < 0 check would silently bend
    with pytest.raises(ConfigError):
        load_config({**base, "tolerance": float("nan")})
    with pytest.raises(ConfigError):
        load_config({**base, "seeds": [1.5]})
    with pytest.raises(ConfigError):
        load_config({**base, "horizons": [2.7]})
    config = load_config(json.loads('{"preset": "z2-uniform", "horizons": [100], "block_lengths": [2], "seeds": [3]}'))
    assert (config.horizons, config.block_lengths, config.seeds) == ((100,), (2,), (3,))


def test_cli_requires_preset_or_config(capsys):
    assert run(["entropy"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_malformed_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["entropy", "--config", str(bad)]) == 2


def test_cli_entropy_and_reports(tmp_path):
    out = tmp_path / "reports"
    code = run(["entropy", "--preset", "z2-uniform", "--k", "3", "--out", str(out)])
    assert code == 0
    text = (out / "entropy.csv").read_text()
    assert text.startswith("# fiberlab.entropy.v1\n")
    assert "2.75" in text


def test_cli_entropy_json_format(tmp_path):
    out = tmp_path / "reports"
    assert run(["entropy", "--preset", "z2-uniform", "--k", "3", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "entropy.json").read_text())
    assert payload["schema"] == "fiberlab.entropy.v1"
    assert payload["rows"][0]["H_k"] == pytest.approx(2.75)


def test_cli_verify_brudno_passes_and_is_deterministic(tmp_path):
    out = tmp_path / "reports"
    args = [
        "verify-brudno",
        "--preset", "free-monoid-uniform",
        "--n", "4096", "--k", "4",
        "--seed", "1", "--seed", "2",
        "--out", str(out),
    ]
    assert run(args) == 0
    first = read_all(out)
    assert run(args) == 0
    assert read_all(out) == first
    summary = json.loads((out / "brudno_summary.json").read_text())
    assert summary["all_bounds_hold"] is True
    assert summary["max_gap_code_vs_exact"] == pytest.approx(0.0)


def test_cli_verify_ar_tolerance_zero_fails(tmp_path):
    out = tmp_path / "reports"
    base = ["verify-ar", "--preset", "f2-markov", "--n", "1000", "--k", "5", "--seed", "1", "--out", str(out)]
    assert run(base + ["--tolerance", "0.1"]) == 0
    # finite-n overhead is strictly positive, so tolerance 0 must fail
    assert run(base + ["--tolerance", "0"]) == 1
    summary = json.loads((out / "ar_summary.json").read_text())
    assert summary["pass"] is False


def test_cli_range_f2_is_identically_one(tmp_path):
    out = tmp_path / "reports"
    assert run(["range", "--preset", "f2-markov", "--n", "2000", "--seed", "3", "--out", str(out)]) == 0
    lines = (out / "range.csv").read_text().strip().splitlines()
    for line in lines[2:]:
        assert line.endswith(",1.0")


def test_cli_simulate_is_byte_identical(tmp_path):
    out = tmp_path / "reports"
    args = ["simulate", "--preset", "z2-uniform", "--n", "1000", "--seed", "7", "--out", str(out)]
    assert run(args) == 0
    first = read_all(out)
    assert run(args) == 0
    assert read_all(out) == first
    assert "simulate_seed7.csv" in first


def test_cli_simulate_streams_its_csv_rows(tmp_path, traced_peak):
    # one dict per step held at once took 24 MB at this n; the CSV writer now
    # reads the rows one at a time, and the peak is the run's own arrays
    out = tmp_path / "reports"
    args = ["simulate", "--preset", "z2-uniform", "--n", "100000", "--seed", "1", "--out", str(out)]
    code, peak = traced_peak(lambda: run(args))
    assert code == 0
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("rows", [
    [],
    [{"i": 0, "x": 0.1, "y": ""}],
    [{"i": 0, "x": 0.1, "y": ""}, {"i": 1, "x": -2.5e-300, "y": "b"}, {"i": 2, "x": float("nan"), "y": ""}],
], ids=["0-rows", "1-row", "3-rows"])
@pytest.mark.parametrize("batch", [2, 2 ** 12])
def test_cli_json_reports_stream_the_bytes_of_one_dump(tmp_path, monkeypatch, rows, batch):
    from fiberlab import actions, cli

    monkeypatch.setattr(actions, "_CHUNK", batch)  # 2 splits three rows across batches
    config = load_config({"preset": "z2-uniform", "out": str(tmp_path), "format": "json"})
    columns = ("i", "x", "y")
    path = cli._write_rows(config, "probe", columns, iter(rows))
    payload = {"schema": "fiberlab.probe.v1", "columns": list(columns), "rows": rows}
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("preset", ["free-monoid-uniform", "z2-uniform", "f2-markov"])
def test_report_bytes_do_not_depend_on_the_chunk(tmp_path, monkeypatch, preset):
    # every chunked pass cuts its spans by actions._CHUNK; at 1, 2, 3 and 7
    # the walks, names, sampler, coders and JSON batches all split
    from fiberlab import actions

    def reports(label):
        got = {}
        for command in COMMANDS:
            for format in ("csv", "json"):
                out = tmp_path / label / command / format
                config = load_config({"preset": preset, "horizons": [29, 61], "block_lengths": [2, 3],
                                      "seeds": [1, 2], "format": format, "out": str(out)})
                got[command, format] = COMMANDS[command](config), read_all(out)
        return got

    want = reports("default")
    for chunk in (1, 2, 3, 7):
        monkeypatch.setattr(actions, "_CHUNK", chunk)
        assert reports(f"chunk{chunk}") == want, chunk


GRID = {"horizons": [0, 29, 61, 2003], "block_lengths": [2, 3], "seeds": [1, 2]}


@pytest.mark.parametrize("preset", ["free-monoid-uniform", "z2-uniform", "f2-markov"])
def test_each_verify_row_equals_its_cell_sampled_at_its_own_n(tmp_path, preset):
    # the CLI codes each cell on a prefix of the seed's one path; a path
    # sampled and named at the cell's own n, with a family of its own, gives
    # the same report
    config = load_config({"preset": preset, **GRID, "out": str(tmp_path)})
    for command, stem in (("verify-brudno", "brudno"), ("verify-ar", "ar")):
        assert COMMANDS[command](config) == 0
        with open(tmp_path / f"{stem}.csv", newline="", encoding="utf-8") as handle:
            next(handle)  # the schema line
            written = list(csv.DictReader(handle))
        expected = []
        for n in config.horizons:
            for k in config.block_lengths:
                for seed in config.seeds:
                    name = emit_name(config.fiber, sample_trajectory(config.driving, n, seed), seed)
                    family = BlockCodebookFamily(k, config.fiber, config.driving)
                    if command == "verify-brudno":
                        exact = exact_rate_or_none(config.fiber, config.driving, k)
                        report = conditional_rate(name, family, exact=exact)
                    else:
                        report = ar_decomposition_check(name, family)
                    expected.append({column: str(value) for column, value in report.to_csv_row().items()})
        assert written == expected, command


@pytest.mark.parametrize("horizons,block_lengths", [([50], [2]), ([10, 50], [2, 3]), ([0, 7, 20, 50], [1, 2, 4])])
def test_every_command_samples_and_names_each_seed_once(tmp_path, monkeypatch, horizons, block_lengths):
    # one path per seed, at the largest horizon, whatever the grid; and the
    # previous seed's path is freed before the next seed is sampled
    from fiberlab import cli

    sampled, named, alive = [], [], []
    sample_of, name_of = cli.sample_trajectory, cli.emit_name

    def sample(spec, n, seed):
        assert all(letters() is None for letters in alive), "a path outlived its seed"
        sampled.append((n, seed))
        return sample_of(spec, n, seed)

    def name(spec, alpha, seed):
        orbit = name_of(spec, alpha, seed)
        named.append((len(orbit), seed))
        alive.append(weakref.ref(orbit.letters))
        return orbit

    monkeypatch.setattr(cli, "sample_trajectory", sample)
    monkeypatch.setattr(cli, "emit_name", name)
    seeds = [3, 1, 2]
    config = load_config({"preset": "z2-uniform", "horizons": horizons, "block_lengths": block_lengths,
                          "seeds": seeds, "out": str(tmp_path)})
    for command in ("verify-brudno", "verify-ar", "simulate"):
        for calls in (sampled, named, alive):
            calls.clear()
        assert COMMANDS[command](config) == 0
        assert sampled == named == [(horizons[-1], seed) for seed in seeds], command


def test_cli_verify_ar_never_loads_numpy_ma(tmp_path):
    # a bare np.unique loads numpy.ma on its first call (numpy 2.4), which
    # costs a run about 15 ms and 1.25 MB of RSS
    code = (
        "import sys; from fiberlab.cli import main; "
        f"main(['verify-ar', '--preset', 'f2-markov', '--n', '2000', '--k', '4', '--seed', '1', '--out', {str(tmp_path)!r}]); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "False"


# one ar cell on a chain given as (action, alphabet size, pi) on the command
# line, with the two _rank bindings counted: the modules that ranked, then
# whether numpy.ma was loaded
RANKED_CELL = """
import sys
from fiberlab import actions, driving
from fiberlab import Alphabet, BlockCodebookFamily, FiberSystemSpec, MarkovChainSpec
from fiberlab import ar_decomposition_check, emit_name, sample_trajectory

kind, size, pi = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
ranked = []
for module in (actions, driving):
    def counted(*args, rank=module._rank, name=module.__name__):
        ranked.append(name)
        return rank(*args)
    module._rank = counted
chain = MarkovChainSpec.bernoulli(Alphabet(tuple(map(str, range(size)))), pi)
fiber = FiberSystemSpec(kind, Alphabet(("0", "1")), ("1/2", "1/2"))
name = emit_name(fiber, sample_trajectory(chain, 20000, 1), seed=1)
ar_decomposition_check(name, BlockCodebookFamily(8, fiber, chain))
print(sorted(set(ranked)), "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("chain, ranked", [
    # i.i.d. +e1 and +e2 steps: a box of about (n / 2)**2 cells, which the walk ranks by a sort
    (["z2", "4", "1/2", "0", "1/2", "0"], "['fiberlab.actions']"),
    # 256**8 keys pass 2**62, so the block table ranks its key
    (["free-monoid", "256", *["1/256"] * 256], "['fiberlab.driving']"),
], ids=["sparse z2 box", "key past the limit"])
def test_ranking_never_loads_numpy_ma(chain, ranked):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", RANKED_CELL, *chain], check=True, env=env, capture_output=True,
                            text=True)
    assert result.stdout.splitlines()[-1] == f"{ranked} False"


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    code = "import sys, fiberlab.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_cli_config_file_round_trip(tmp_path):
    config = {
        "preset": "z2-uniform",
        "horizons": [500],
        "block_lengths": [2, 3],
        "seeds": [1],
        "out": str(tmp_path / "reports"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["entropy", "--config", str(path)]) == 0
    rows = (tmp_path / "reports" / "entropy.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # schema comment, header, two block lengths


def test_cli_explicit_specs_in_config(tmp_path):
    config = {
        "driving": {"alphabet": ["0", "1"], "pi": ["1/2", "1/2"], "Pi": [["1/2", "1/2"], ["1/2", "1/2"]]},
        "fiber": {"action": "free-monoid", "fiber_alphabet": ["0", "1"], "p": ["1/2", "1/2"]},
        "horizons": [256],
        "block_lengths": [4],
        "seeds": [1],
        "out": str(tmp_path / "reports"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["verify-brudno", "--config", str(path)]) == 0


NON_STATIONARY = {
    "driving": {"alphabet": ["0", "1"], "pi": ["1", "0"], "Pi": [["0", "1"], ["1", "0"]]},
    "fiber": {"action": "free-monoid", "fiber_alphabet": ["0", "1"], "p": ["1/2", "1/2"]},
    "horizons": [100],
    "block_lengths": [3],
    "seeds": [1],
}


def z2_chain_config(pi, out):
    """A stationary z2 chain: +e1 steps to itself, and +e2 and -e2 step to either of them uniformly."""
    stay, half = ["1", "0", "0", "0"], ["0", "0", "1/2", "1/2"]
    driving = {"alphabet": ["+e1", "-e1", "+e2", "-e2"], "pi": pi, "Pi": [stay, stay, half, half]}
    fiber = {"action": "z2", "fiber_alphabet": ["0", "1"], "p": ["1/2", "1/2"]}
    return {"driving": driving, "fiber": fiber, "horizons": [200], "block_lengths": [4], "seeds": [1], "out": out}


def test_a_reducible_driving_chain_is_refused_at_load(tmp_path, capsys):
    # two closed classes, {+e1} and {+e2, -e2}: each run's rate tends to its
    # own class's value, while the exact column would quote their average
    out = tmp_path / "reports"
    two_classes = z2_chain_config(["1/2", "0", "1/4", "1/4"], str(out))
    with pytest.raises(ConfigError, match="^the driving chain must be irreducible"):
        load_config(two_classes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(two_classes), encoding="utf-8")
    for command in ("verify-brudno", "verify-ar", "entropy", "range", "simulate"):
        assert run([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fiberlab: configuration error: the driving chain must be irreducible")
        assert err.count("\n") == 1
    assert not out.exists()
    # the states no run reaches do not count: pi on {+e2, -e2} alone loads
    one_class = load_config(z2_chain_config(["0", "0", "1/2", "1/2"], str(out)))
    assert one_class.driving.pi[2:] == (Fraction(1, 2),) * 2


@pytest.mark.parametrize("case", ["range-n-0", "non-stationary", "out-under-a-file", "out-of-memory"])
def test_cli_library_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    out = str(tmp_path / "reports")
    if case == "range-n-0":
        args = ["range", "--preset", "z2-uniform", "--n", "0", "--seed", "1", "--out", out]
    elif case == "out-under-a-file":
        (tmp_path / "file").write_text("", encoding="utf-8")
        args = ["entropy", "--preset", "z2-uniform", "--k", "3", "--out", str(tmp_path / "file" / "sub")]
    elif case == "out-of-memory":
        # exit 1 would mean a failed inequality; numpy's error names the array
        from fiberlab import cli

        def exhausted(*args):
            raise MemoryError("Unable to allocate 76.3 MiB for an array with shape (9999999,) and data type int64")

        monkeypatch.setattr(cli, "sample_trajectory", exhausted)
        args = ["verify-brudno", "--preset", "z2-uniform", "--n", "100", "--k", "2", "--seed", "1", "--out", out]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**NON_STATIONARY, "out": out}), encoding="utf-8")
        args = ["verify-brudno", "--config", str(path)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("fiberlab: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-brudno", "verify-ar", "entropy", "range", "simulate"])
def test_cli_refuses_a_horizon_past_max_horizon(tmp_path, capsys, command):
    out = tmp_path / "reports"
    args = [command, "--preset", "f2-markov", "--n", str(MAX_HORIZON + 1), "--seed", "1", "--out", str(out)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("fiberlab: configuration error: horizon") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-brudno", "verify-ar"])
def test_cli_refuses_float_probabilities_that_do_not_sum_to_one(tmp_path, capsys, command):
    # 0.1 and 0.9 are read as their binary values, which sum to 1 + 2**-55
    out = tmp_path / "reports"
    fiber = {"action": "z2", "fiber_alphabet": ["0", "1"], "p": [0.1, 0.9]}
    config = {"driving": "z2-uniform", "fiber": fiber, "horizons": [100], "block_lengths": [4], "seeds": [1]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "out": str(out)}), encoding="utf-8")
    assert run([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fiberlab: configuration error: ") and "p must sum to exactly 1" in err
    assert err.count("\n") == 1
    assert not out.exists()
    # the same law as exact strings is accepted
    fiber["p"] = ["1/10", "9/10"]
    path.write_text(json.dumps({**config, "fiber": fiber, "out": str(out)}), encoding="utf-8")
    assert run([command, "--config", str(path)]) == 0


@pytest.mark.parametrize("value", ["1/0", float("nan"), float("inf"), True],
                         ids=["zero-denominator", "NaN", "Infinity", "true"])
@pytest.mark.parametrize("where", ["pi", "Pi", "p"])
def test_cli_refuses_a_probability_that_is_no_number(tmp_path, capsys, where, value):
    # JSON true, a Python bool and so an int, was once read as 1
    out = tmp_path / "reports"
    quarter = ["1/4"] * 4
    driving = {"alphabet": ["a", "A", "b", "B"], "pi": list(quarter), "Pi": [list(quarter) for _ in range(4)]}
    fiber = {"action": "z2", "fiber_alphabet": ["0", "1"], "p": ["1/2", "1/2"]}
    {"pi": driving["pi"], "Pi": driving["Pi"][0], "p": fiber["p"]}[where][0] = value
    config = {"driving": driving, "fiber": fiber, "block_lengths": [2], "out": str(out)}
    path = tmp_path / "config.json"
    # json writes the floats as the bare NaN and Infinity that it also reads
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["entropy", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fiberlab: configuration error:") and "as a probability" in err
    assert err.count("\n") == 1
    assert not out.exists()


def monoid_config(letters, out):
    """A free-monoid system on this many letters: a uniform first letter, then the next letter, cyclically
    (an irreducible chain, as a config must drive)."""
    Pi = [[int(b == (a + 1) % letters) for b in range(letters)] for a in range(letters)]
    driving = {"alphabet": [str(a) for a in range(letters)], "pi": [f"1/{letters}"] * letters, "Pi": Pi}
    fiber = {"action": "free-monoid", "fiber_alphabet": ["0", "1"], "p": ["1/2", "1/2"]}
    return {"driving": driving, "fiber": fiber, "horizons": [50], "block_lengths": [1], "seeds": [1], "out": str(out)}


@pytest.mark.parametrize("command", ["verify-brudno", "verify-ar", "entropy", "range", "simulate"])
def test_cli_refuses_a_free_monoid_past_256_letters_at_load(tmp_path, capsys, command):
    # a free-monoid key chains one byte per letter, so the walk takes 256
    out = tmp_path / "reports"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(monoid_config(257, out)), encoding="utf-8")
    assert run([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "fiberlab: configuration error: action 'free-monoid' takes at most 256 driving letters, not 257\n"
    assert not out.exists()


def test_cli_runs_a_free_monoid_of_256_letters(tmp_path):
    out = tmp_path / "reports"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(monoid_config(256, out)), encoding="utf-8")
    assert run(["range", "--config", str(path)]) == 0
    assert (out / "range.csv").exists()


@pytest.mark.parametrize("key", ["horizons", "block_lengths", "seeds", "tolerance"])
def test_cli_refuses_json_booleans_in_a_config_file(tmp_path, capsys, key):
    # JSON true is a Python bool, which operator.index and float() read as 1
    out = tmp_path / "reports"
    config = {"preset": "z2-uniform", "horizons": [100], "block_lengths": [2], "seeds": [1], "tolerance": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, key: True if key == "tolerance" else [True], "out": str(out)}),
                    encoding="utf-8")
    assert run(["verify-ar", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fiberlab: configuration error: {key}: true is a boolean") and err.count("\n") == 1
    assert not out.exists()
    # the same document with JSON integers loads
    path.write_text(json.dumps({**config, "out": str(out)}), encoding="utf-8")
    assert run(["verify-ar", "--config", str(path)]) == 0
    assert load_config(json.loads(path.read_text(encoding="utf-8"))).tolerance == 1.0


@pytest.mark.parametrize("extra, named", [
    ({"horizon": [100], "seed": [7]}, "horizon, seed"),
    ({"driving": {**NON_STATIONARY["driving"], "P": []}, "fiber": {**NON_STATIONARY["fiber"], "q": []}},
     "driving.P, fiber.q"),
], ids=["top level", "spec objects"])
def test_cli_refuses_unknown_config_keys(tmp_path, capsys, extra, named):
    # "horizon" for "horizons" once ran the default horizon and seeds silently
    out = tmp_path / "reports"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "z2-uniform", **extra, "out": str(out)}), encoding="utf-8")
    assert run(["range", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"fiberlab: configuration error: unknown config keys: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, key, value, named, string", [
    ("driving", "alphabet", "ab", "alphabet", "ab"),
    ("driving", "pi", "10", "pi", "10"),
    ("driving", "Pi", "1001", "Pi", "1001"),
    ("driving", "Pi", ["10", [0, 1]], "row 0 of Pi", "10"),
    ("driving", "Pi", [[1, 0], "01"], "row 1 of Pi", "01"),
    ("fiber", "fiber_alphabet", "01", "fiber_alphabet", "01"),
    ("fiber", "p", "1", "p", "1"),
])
def test_a_config_refuses_a_string_where_a_spec_list_belongs(spec, key, value, named, string):
    # a string iterated into its characters: {"alphabet": "ab", "pi": "10",
    # "Pi": ["10", "01"]} loaded as the identity chain on a and b
    driving = {"alphabet": ["a", "b"], "pi": [1, 0], "Pi": [[1, 0], [0, 1]]}
    fiber = {"action": "free-monoid", "fiber_alphabet": ["0"] if key == "p" else ["0", "1"],
             "p": ["1"] if key == "p" else ["1/2", "1/2"]}
    config = {"driving": driving, "fiber": fiber}
    load_config(config)
    config[spec] = {**config[spec], key: value}
    with pytest.raises(ConfigError) as refused:
        load_config(config)
    assert str(refused.value) == f"invalid configuration: {named} must be a list, not {string!r}"


def test_config_built_directly_refuses_a_tolerance_that_is_no_real():
    # tolerance=True was kept as True, and "0.5" raised a bare TypeError
    driving, fiber = system_preset("z2-uniform")
    for tolerance in (True, "0.5", None, [0.1]):
        with pytest.raises(ConfigError, match="tolerance must be a real number"):
            ExperimentConfig(driving, fiber, (10,), (2,), (1,), Path("reports"), tolerance=tolerance)
    # 10**400 was kept as an int, a tolerance no residual can reach
    with pytest.raises(ConfigError, match="tolerance must be a finite number"):
        ExperimentConfig(driving, fiber, (10,), (2,), (1,), Path("reports"), tolerance=10 ** 400)
    for tolerance in (0, 0.5, Fraction(1, 2)):
        config = ExperimentConfig(driving, fiber, (10,), (2,), (1,), Path("reports"), tolerance=tolerance)
        assert config.tolerance == tolerance and type(config.tolerance) is float


def test_config_built_directly_refuses_a_driving_or_fiber_that_is_no_spec():
    # a preset name as either spec raised AttributeError: 'str' object has
    # no attribute 'alphabet'; the specs are checked before any other value
    driving, fiber = system_preset("z2-uniform")
    for spec in ("z2-uniform", None, "x", {"preset": "z2-uniform"}, fiber):
        with pytest.raises(ConfigError, match=r"^driving must be a MarkovChainSpec, not "):
            ExperimentConfig(spec, fiber, (10,), (2,), (1,), Path("reports"))
    for spec in ("z2-uniform", None, "x", {"action": "z2"}, driving):
        with pytest.raises(ConfigError, match=r"^fiber must be a FiberSystemSpec, not "):
            ExperimentConfig(driving, spec, (10,), (2,), (1,), Path("reports"), tolerance=True)
    with pytest.raises(ConfigError, match="^driving must be"):
        ExperimentConfig("z2-uniform", "z2-uniform", "no list", (2,), (1,), Path("reports"))


# JSON values and their Python look-alikes: ints huge and negative, floats
# with NaN and the infinities, bools, strings, None and nested lists, and
# the values each key accepts: ascending lists of small ints and floats in [0, 1]
CONFIG_VALUES = st.one_of(
    st.recursive(
        st.one_of(st.integers(), st.sampled_from([-1, 0, 2 ** 64, MAX_HORIZON + 1, 10 ** 400]), st.floats(),
                  st.booleans(), st.text(max_size=3), st.none()),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=8,
    ),
    st.lists(st.integers(0, 20), max_size=3).map(sorted),
    st.floats(0, 1),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key=st.sampled_from(["horizons", "block_lengths", "seeds", "tolerance"]), value=CONFIG_VALUES)
def test_a_config_file_accepts_exactly_what_a_config_built_directly_accepts(key, value):
    # load_config once checked these values by rules of its own: they
    # disagreed with ExperimentConfig's on a tolerance of 10**400, and in the
    # message or the exception for bools, nested lists and a non-list
    driving, fiber = system_preset("z2-uniform")
    values = {"horizons": (5000,), "block_lengths": (4,), "seeds": (1, 2), "out": "fiberlab-reports", key: value}
    try:
        direct = ExperimentConfig(driving, fiber, **values)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as refused:
            load_config({"preset": "z2-uniform", key: value})
        assert str(refused.value) == str(exc)
    else:
        assert load_config({"preset": "z2-uniform", key: value}) == direct


def test_config_built_directly_holds_ints_and_a_path(tmp_path):
    # np.int64 block lengths once reached the JSON report, which refused
    # them, and a str out had no mkdir
    driving, fiber = system_preset("z2-uniform")
    out = tmp_path / "reports"
    config = ExperimentConfig(driving, fiber, [10], [np.int64(2), np.int64(3)], [np.uint64(1)], str(out),
                              format="json")
    assert (config.horizons, config.block_lengths, config.seeds, config.out) == ((10,), (2, 3), (1,), out)
    assert all(type(x) is int for x in config.horizons + config.block_lengths + config.seeds)
    assert cmd_entropy(config) == 0
    rows = json.loads((out / "entropy.json").read_text(encoding="utf-8"))["rows"]
    assert [row["k"] for row in rows] == [2, 3]


@pytest.mark.parametrize("tolerance", ["0.5", None, [0.1]])
def test_a_config_file_refuses_a_tolerance_that_is_no_real(tmp_path, capsys, tolerance):
    # float() read the string "0.5" as 0.5, although ExperimentConfig refuses it
    with pytest.raises(ConfigError, match="tolerance must be a real number"):
        load_config({"preset": "f2-markov", "tolerance": tolerance})
    out = tmp_path / "reports"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "f2-markov", "tolerance": tolerance, "out": str(out)}), encoding="utf-8")
    assert run(["verify-ar", "--config", str(path), "--n", "200", "--k", "2", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"fiberlab: configuration error: tolerance must be a real number, not {tolerance!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("form", ["json-string", "json-overflow", "json-integer", "flag"])
def test_cli_refuses_an_infinite_tolerance(tmp_path, capsys, form):
    # a tolerance of inf would pass every residual
    out = tmp_path / "reports"
    args = ["verify-ar", "--preset", "f2-markov", "--n", "200", "--k", "2", "--seed", "1", "--out", str(out)]
    if form == "flag":
        args += ["--tolerance", "inf"]
    else:
        path = tmp_path / "config.json"
        # JSON reads 1e400 as a float that overflows to inf, and 1 followed
        # by 400 zeros as an int that float() cannot hold
        value = {"json-string": '"inf"', "json-overflow": "1e400", "json-integer": "1" + "0" * 400}[form]
        path.write_text('{"tolerance": %s}' % value, encoding="utf-8")
        args += ["--config", str(path)]
    assert run(args) == 2
    err = capsys.readouterr().err
    # a JSON string is refused as no real number, as ExperimentConfig refuses it
    expected = "tolerance must be a real number, not 'inf'" if form == "json-string" else "tolerance must be a finite"
    assert err.startswith(f"fiberlab: configuration error: {expected}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("k", [9, 300])
def test_cli_entropy_reaches_past_the_codebook_cap(tmp_path, k):
    # the renewal path gives z2-uniform's exact value up to k = 2364
    out = tmp_path / "reports"
    assert run(["entropy", "--preset", "z2-uniform", "--k", str(k), "--out", str(out)]) == 0
    row = (out / "entropy.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert row.startswith(f"{k},")


def test_cli_entropy_past_the_renewal_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "reports"
    assert run(["entropy", "--preset", "z2-uniform", "--k", "2365", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fiberlab: renewal tables of") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("k", ["9", "100000"])
@pytest.mark.parametrize("command", ["verify-brudno", "verify-ar"])
def test_cli_block_coders_keep_the_codebook_cap(tmp_path, capsys, command, k):
    out = tmp_path / "reports"
    assert run([command, "--preset", "z2-uniform", "--n", "100", "--k", k, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"fiberlab: configuration error: block length {k} exceeds the enumeration cap (8**{k} > 2**24)\n"
    assert not out.exists()
