"""Golden bytes: report files and orbit names pinned by sha256.

The digests were recorded before the coordinate walk was rewritten, so any
change to a blake2b coordinate key, a symbol hash or a report format shows
here.  The tail digests, at n = 20003, were recorded before the block
coders were rebuilt on one table of distinct block pairs; 20003 is a
multiple of neither block length, so they also pin the raw-coded tails.
The f2 names are driven by the uniform Bernoulli chain, which backtracks,
so they also pin the cancel-and-revisit path of the f2 walk that the
f2-markov preset never reaches.

The skewed digests, at n = 20003, were recorded before codes were keyed by
the number of first visits.  The uniform binary presets give every
codeword of a code one length; fiber laws (1/3, 2/3) and (1/5, 1/5, 3/5)
give codewords of several lengths, so these digests also pin the
(length, block) order of the canonical codes.

The two f2-markov verify-brudno digests were re-recorded when the exact
entropy became an exact Fraction rounded once: the old float search gave
7.999999999999786 bits at k = 8, the exact value is 8.  Both f2-markov and
the free monoid then have rate exactly 1 and equal report bytes.

Report bytes count bits, so they pin codeword lengths but not the
codewords themselves.  The codeword digests, sha256 of encode(name).bits
at n = 20003 under the two skewed laws, were recorded before block
probabilities became integer numerators; they pin every codeword and its
canonical (length, block) order.

The format digests pin what the report digests above leave open: the JSON
reports of the verify commands and the reports of entropy, range and
simulate, each at a small horizon.  They were recorded before the report
columns, the verify verdicts and the simulate rows were each moved to one
owner.

The multi-horizon digests pin the verify reports of a grid of several
horizons, block lengths and seeds, 0 and tails included.  They were
recorded while every (n, k, seed) cell still sampled and named a path of
its own, before each seed's path was sampled once and its cells coded
prefixes of it.

The exact-layer digest pins exact_averaged_entropy over a grid of systems
and horizons: each value as repr(bits), each refusal as "Type: message".
It was recorded before the choice of a range path and each path's cap
moved into the path itself, so it pins the linear, renewal and taboo
values, both sides of the renewal cap (n = 2364 under uniform z2 steps),
and the taboo and enumeration refusals.  Its "enumerate" lines are the
(u, v) oracle's, which moved to tests/oracles.py with the method option;
the digest was re-recorded then, from the old "fast" and "enumerate"
outputs, without the one line that pinned the unknown-method refusal.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fiberlab import (
    Alphabet,
    BlockCodebookFamily,
    FiberSystemSpec,
    MarkovChainSpec,
    emit_name,
    encode,
    exact_averaged_entropy,
    sample_trajectory,
    system_preset,
)
from fiberlab.cli import main
from oracles import averaged_entropy_enumerated

REPORT_DIGESTS = {
    ("verify-brudno", "free-monoid-uniform"): "063f98759651453e9460482475c621262b0d632abf8b4b669ecc0046cb1390cd",
    ("verify-brudno", "z2-uniform"): "3792efc5b560c70f3b9f2fc61f83263e8e3f7417951f413a28b9542f7916ffef",
    ("verify-brudno", "f2-markov"): "063f98759651453e9460482475c621262b0d632abf8b4b669ecc0046cb1390cd",
    ("verify-ar", "free-monoid-uniform"): "bc4938d0be2a5ba199684a31d40aefd5c7ea14d816001aabe6705f8adf40f9d5",
    ("verify-ar", "z2-uniform"): "d205b1bf8010283f54c36805a4d00672d5b2d4f5789b5478a35937144853a9ba",
    ("verify-ar", "f2-markov"): "05ab6333036ceba18673ca5219df07ff0224158ddae3a44e54f09dce44b10245",
}

TAIL_REPORT_DIGESTS = {
    ("verify-brudno", "free-monoid-uniform"): "97236ca825ad019ed766579dc9a110b848c2cc70e0bf5b61d7087ee9afcf8abb",
    ("verify-brudno", "z2-uniform"): "bdc10fd991e925c478e4d989a947b017ed90bab253ce6a151456794b37ea03a7",
    ("verify-brudno", "f2-markov"): "97236ca825ad019ed766579dc9a110b848c2cc70e0bf5b61d7087ee9afcf8abb",
    ("verify-ar", "free-monoid-uniform"): "ab6839bc6ba31f5cb618f4f57776a83393b2a4a9ec2af0d0d5e2838474e326c6",
    ("verify-ar", "z2-uniform"): "a720f38c9f73ac20b86f49ac30ec3513754a12216fe150d1e46303c63c29d9c8",
    ("verify-ar", "f2-markov"): "25af582b16028943640ec6352d0f96f24d667c0869ea630b2ad9c55baeb4d0fc",
}

SKEWED_LAWS = {"thirds": ("1/3", "2/3"), "fifths": ("1/5", "1/5", "3/5")}

SKEWED_REPORT_DIGESTS = {
    ("verify-brudno", "thirds"): "8f60ffdbd499c4e8da9a4692308c02877e3a6f6f819ae96121327ad1836f7213",
    ("verify-brudno", "fifths"): "7fab231c7bb6e96f7120cae594a16b61eb261465d647a15862ba692c7e324db9",
    ("verify-ar", "thirds"): "a8b84d7c0cde2bb5b6b161e5d1009ce6540a9cf46e2397854ccd2f196e93af00",
    ("verify-ar", "fifths"): "c13c65fba3060e6d035702684867d895e23a740010de4e93e587b521905bbcab",
}

CODEWORD_DIGESTS = {
    ("thirds", 4, 1): "dfbe2c419bf08cb0b9569fdf4be90beaa65eb43eda16f5b42a58600b16e58a48",
    ("thirds", 4, 2): "85844a7d506ea9b7c624b6df6cc45d18b6b4aa0b4e5717cc25a0706cca2a080b",
    ("thirds", 5, 1): "f652ae12fb1abe0088bbdf3f015befa996224713317451b9987b49c3895972fd",
    ("thirds", 5, 2): "6fff0e52040b1f0511e76f3662d80c40fbe2a8e57bf0a1eead7d97ea0a1f8af7",
    ("fifths", 4, 1): "27272a70ed520a0491200116298b33518cdcfabd789bd597dc4c972f298c5e50",
    ("fifths", 4, 2): "47588025e5396be78d3f65057331ceafde8be2c0e2e0a8f54b88113810fca456",
    ("fifths", 5, 1): "a354301c36994f16c1cd970bea373a621ba01e44607d7a072389a6cb413acf12",
    ("fifths", 5, 2): "c701188e73079e6426ff85e12507ca8491a58359a59e2864595bba298caf727d",
}

NAME_DIGESTS = {
    ("free-monoid", 1): "dc24e076a3a75a8068c974e50fedf58e8194c923ab79ef8bcf3f3103c7737e9e",
    ("free-monoid", 2): "52c6d5185d9392106298fd035a5e4e75c9abad33a7c04bc938e9fb8d49f9f41d",
    ("z2", 1): "965f227cea01493bea0da5d3c5d855947de76bc91e811ebf886984c752556c66",
    ("z2", 2): "9799fca9cc01af1ad0890a1e58d7dd610fa4f8a83e20b06011fc39d20bc96516",
    ("f2", 1): "26e3a89c792483d0ee0e4d63023cc5229bc303267dc57d44ea5286bb7976dcc2",
    ("f2", 2): "a8c2f20b87da8b4bf06baa96934c3aa614460106713354f8bdd20ce270c7d4d4",
}

# (command, format): (config, digest)
FORMAT_DIGESTS = {
    ("verify-brudno", "json"): (
        {"preset": "z2-uniform", "horizons": [2003], "block_lengths": [4, 8]},
        "d715e1a1d1766c299a360acc4d3be5e726a9cb50aa720f7e132af879b1bf582f",
    ),
    ("verify-ar", "json"): (
        {"preset": "f2-markov", "horizons": [2003], "block_lengths": [4, 8]},
        "8b585cad849d679fe30da5c8277661b32131ab086d7620bc396f802b5800895b",
    ),
    ("entropy", "csv"): (
        {"preset": "z2-uniform", "block_lengths": [1, 2, 3, 4, 5, 6]},
        "ad493a77a9998bd5818cbb3c7cc4ab8e008a018efad5ca2263000dc4cfc71d7e",
    ),
    ("range", "csv"): (
        {"preset": "z2-uniform", "horizons": [1, 10, 100, 1000]},
        "7171ca52572f29525a76070f2f84ffe801fe70836c9c6d152d9107227d75d417",
    ),
    ("simulate", "csv"): (
        {"preset": "z2-uniform", "horizons": [300]},
        "14d53e6231cd789b7a2f4b3e747c7041648a33a6fa909fc5e7a96b4d8b4c9031",
    ),
    ("simulate", "json"): (
        {"preset": "f2-markov", "horizons": [300]},
        "0a54ed5d1065e027620ea8c0d4cea38dae0a199ccecc143b2a2a44648b7ed520",
    ),
}

MULTI_HORIZON_GRID = {"horizons": [0, 29, 61, 2003], "block_lengths": [2, 3], "format": "csv"}

MULTI_HORIZON_DIGESTS = {
    ("verify-brudno", "z2-uniform"): "2d13ce62b430f66ef2ee72e35deac581b1a0ad65063818928a18f781ef4f5215",
    ("verify-brudno", "f2-markov"): "597bb26ea7917985fe07d5a2bb17e7cb1667527f11aa6ff3dc696f519fcd7e94",
    ("verify-ar", "z2-uniform"): "423b1203f6daaa74a19f9b51e709c0e6e2985213c78a553081457809b0d26a3a",
    ("verify-ar", "f2-markov"): "232eadfd77c4b1eef8e2ec585fcac22d87b7719a7068b3ff5d9ff67cc23097b9",
}

UNIFORM_F2 = MarkovChainSpec.bernoulli(Alphabet(("a", "A", "b", "B")), (Fraction(1, 4),) * 4)

EXACT_DIGEST = "d218b325738aa423db92e9fd09a5d2b6ebfae6b307ab74c1f9515570a9a654e4"


def exact_cases():
    """(label, fiber, driving, n, method) over the exact layer's paths and caps.

    method "fast" is exact_averaged_entropy, "enumerate" the (u, v) oracle.

    The three presets; z2 under four i.i.d. laws, one that returns to the
    origin only along one axis and one that never returns; z2 under a chain
    that repeats its last step w.p. 1/2 (taboo); and f2 under the uniform
    Bernoulli chain, which backtracks (taboo).  The non-preset systems
    carry the fiber law (1/3, 2/3), so that rounding shows.
    """
    generators = Alphabet(("a", "A", "b", "B"))
    thirds = (Fraction(1, 3), Fraction(2, 3))
    binary = Alphabet(("0", "1"))
    systems = {name: system_preset(name)[::-1] for name in ("free-monoid-uniform", "z2-uniform", "f2-markov")}
    laws = {"tenths": ("1/10", "2/10", "3/10", "4/10"), "line": ("1/2", "1/2", 0, 0),
            "diagonal": ("1/2", 0, "1/2", 0), "drift": ("3/4", "1/4", 0, 0)}
    for name, law in laws.items():
        driving = MarkovChainSpec.bernoulli(generators, tuple(Fraction(x) for x in law))
        systems[f"z2-{name}"] = (FiberSystemSpec("z2", binary, thirds), driving)
    persistent = tuple(tuple(Fraction(1, 2) if a == b else Fraction(1, 6) for b in range(4)) for a in range(4))
    persistent_chain = MarkovChainSpec(generators, (Fraction(1, 4),) * 4, persistent)
    systems["z2-persistent"] = (FiberSystemSpec("z2", binary, thirds), persistent_chain)
    systems["f2-uniform"] = (FiberSystemSpec("f2", binary, thirds), UNIFORM_F2)
    for label, (fiber, driving) in systems.items():
        # the renewal cap under den 4 and den 10; 10**4 is past every cap but the linear path's
        large = (2364, 2365) if label in ("z2-uniform", "z2-tenths") else ()
        for n in (*range(1, 15), *large, 10 ** 4):
            for method in ("fast", "enumerate") if n <= 6 or n == 10 ** 4 else ("fast",):
                yield label, fiber, driving, n, method


def report_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def name_digest(kind, seed):
    preset = {"free-monoid": "free-monoid-uniform", "z2": "z2-uniform", "f2": "f2-markov"}[kind]
    driving, fiber = system_preset(preset)
    if kind == "f2":
        driving = UNIFORM_F2
    trajectory = sample_trajectory(driving, 20_000, seed)
    letters = emit_name(fiber, trajectory, seed).letters
    return hashlib.sha256(letters.astype("<i8").tobytes()).hexdigest()


def run_digest(tmp_path, command, preset, n):
    return config_digest(tmp_path, command, {"preset": preset, "horizons": [n], "block_lengths": [4, 8]})


def config_digest(tmp_path, command, config):
    out = tmp_path / "reports"
    config = {**config, "seeds": [1, 2], "out": str(out)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 0
    return report_digest(out)


@pytest.mark.parametrize("command,preset", sorted(REPORT_DIGESTS))
def test_report_bytes_are_unchanged(tmp_path, command, preset):
    assert run_digest(tmp_path, command, preset, 20_000) == REPORT_DIGESTS[command, preset]


@pytest.mark.parametrize("command,preset", sorted(TAIL_REPORT_DIGESTS))
def test_report_bytes_with_a_tail_are_unchanged(tmp_path, command, preset):
    assert run_digest(tmp_path, command, preset, 20_003) == TAIL_REPORT_DIGESTS[command, preset]


@pytest.mark.parametrize("command,law", sorted(SKEWED_REPORT_DIGESTS))
def test_skewed_fiber_report_bytes_are_unchanged(tmp_path, command, law):
    p = SKEWED_LAWS[law]
    fiber = {"action": "z2", "fiber_alphabet": [str(s) for s in range(len(p))], "p": list(p)}
    config = {"driving": "z2-uniform", "fiber": fiber, "horizons": [20_003], "block_lengths": [4, 5]}
    assert config_digest(tmp_path, command, config) == SKEWED_REPORT_DIGESTS[command, law]


@pytest.mark.parametrize("command,format", sorted(FORMAT_DIGESTS))
def test_report_formats_are_unchanged(tmp_path, command, format):
    config, digest = FORMAT_DIGESTS[command, format]
    assert config_digest(tmp_path, command, {**config, "format": format}) == digest


@pytest.mark.parametrize("command,preset", sorted(MULTI_HORIZON_DIGESTS))
def test_multi_horizon_report_bytes_are_unchanged(tmp_path, command, preset):
    config = {"preset": preset, **MULTI_HORIZON_GRID}
    assert config_digest(tmp_path, command, config) == MULTI_HORIZON_DIGESTS[command, preset]


def test_f2_markov_brudno_reports_equal_the_free_monoid_ones(tmp_path):
    # neither system revisits a coordinate and both have exact rate 1
    digests = []
    for preset in ("f2-markov", "free-monoid-uniform"):
        (tmp_path / preset).mkdir()
        digests.append(run_digest(tmp_path / preset, "verify-brudno", preset, 20_000))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("law,k,seed", sorted(CODEWORD_DIGESTS))
def test_skewed_codeword_bits_are_unchanged(law, k, seed):
    p = SKEWED_LAWS[law]
    fiber = FiberSystemSpec("z2", Alphabet(tuple(str(s) for s in range(len(p)))), tuple(Fraction(x) for x in p))
    driving, _ = system_preset("z2-uniform")
    name = emit_name(fiber, sample_trajectory(driving, 20_003, seed), seed)
    bits = encode(name, BlockCodebookFamily(k, fiber, driving)).bits
    assert hashlib.sha256(bits.encode()).hexdigest() == CODEWORD_DIGESTS[law, k, seed]


@pytest.mark.parametrize("kind,seed", sorted(NAME_DIGESTS))
def test_orbit_name_bytes_are_unchanged(kind, seed):
    assert name_digest(kind, seed) == NAME_DIGESTS[kind, seed]


def test_exact_averaged_entropy_values_and_refusals_are_unchanged():
    lines = []
    for label, fiber, driving, n, method in exact_cases():
        try:
            if method == "fast":
                outcome = repr(exact_averaged_entropy(fiber, driving, n).bits)
            else:
                outcome = repr(averaged_entropy_enumerated(fiber, driving, n))
        except Exception as error:
            outcome = f"{type(error).__name__}: {error}"
        lines.append(f"{label} {n} {method}: {outcome}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACT_DIGEST


# golden cases rerun with numpy held to its baseline SIMD: the per-span
# float sums of the coders, the draws' float64 u and the multi-horizon
# prefixes, each of which must not depend on the host's vector width
BASELINE_CASES = [
    "test_multi_horizon_report_bytes_are_unchanged[verify-ar-f2-markov]",
    "test_multi_horizon_report_bytes_are_unchanged[verify-brudno-z2-uniform]",
    "test_report_bytes_with_a_tail_are_unchanged[verify-ar-z2-uniform]",
    "test_skewed_fiber_report_bytes_are_unchanged[verify-ar-fifths]",
    "test_skewed_codeword_bits_are_unchanged[thirds-5-1]",
    "test_orbit_name_bytes_are_unchanged[z2-1]",
    "test_orbit_name_bytes_are_unchanged[f2-1]",
]

BASELINE_RUN = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
disabled = sys.argv[1].split()
assert not any(__cpu_features__[feature] for feature in disabled), "numpy kept a disabled feature"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def test_golden_bytes_do_not_depend_on_the_cpu_features():
    # NPY_DISABLE_CPU_FEATURES turns off every feature numpy dispatches to
    # at run time and this host has, read off numpy's own dispatch list
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = " ".join(feature for feature in __cpu_dispatch__ if __cpu_features__.get(feature))
    here = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    cases = [f"{Path(__file__).resolve()}::{case}" for case in BASELINE_CASES]
    run = subprocess.run([sys.executable, "-c", BASELINE_RUN, disabled, *cases], env=env, cwd=here.parent,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(BASELINE_CASES)} passed" in run.stdout
