import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fiberlab

PUBLIC_NAMES = [
    "ACTION_KINDS", "Alphabet", "ArDecompositionReport", "BinaryCodebook", "BlockCodebookFamily",
    "DrivingTrajectory", "EncodedStream", "EstimatorReport", "ExperimentConfig", "FiberSystemSpec",
    "InfiniteInformationError", "KraftInfeasibleError", "MalformedStreamError", "MarkovChainSpec",
    "ModelMismatchError", "OrbitName", "ResourceLimitError", "SYSTEM_PRESETS", "VisitRecord", "Word",
    "ar_decomposition_check", "block_code_rate", "bufetov_condition", "canonical_kraft_code", "conditional_rate",
    "cylinder_prob", "decode", "driving_preset", "emit_name", "empirical_two_pass_rate", "encode", "entropy_rate",
    "enumerate_word", "exact_averaged_entropy", "information_function", "is_irreducible", "is_prefix_free",
    "is_stationary", "kraft_sum", "load_config", "load_config_file", "range_ratio_curve",
    "sample_trajectory", "shannon_length", "system_preset", "visit_record", "walk",
]


def test_public_names_are_pinned_and_exclude_submodules():
    # an added or removed export shows up here as a diff; submodules are not exports
    assert sorted(fiberlab.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from fiberlab import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES


def test_only_actions_binds_the_chunk():
    # a module that imported _CHUNK would keep its own binding, which a test
    # that patches actions._CHUNK leaves alone; __main__ runs the CLI on import
    names = [info.name for info in pkgutil.iter_modules(fiberlab.__path__) if info.name != "__main__"]
    modules = [importlib.import_module(f"fiberlab.{name}") for name in names]
    bound = [(module.__name__, name) for module in modules for name in vars(module) if "CHUNK" in name.upper()]
    assert bound == [("fiberlab.actions", "_CHUNK")]


def test_every_name_the_bench_tracer_wraps_is_still_bound():
    # bench/child.py times a layer by replacing a function in the fiberlab
    # modules that look it up at call time, tracer.wrap([modules], "name", ...);
    # coding binds block_code_details and information_function for the tracer
    # alone, so a change that dropped such a name would fail only a traced run
    child = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    wrapped = []
    for node in ast.walk(ast.parse(child.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "tracer.wrap":
            modules, name = node.args[0], node.args[1]
            wrapped += [(module.id, name.value) for module in modules.elts]
    assert {("coding", "block_code_details"), ("coding", "information_function")} <= set(wrapped)
    unbound = [(module, name) for module, name in wrapped
               if not hasattr(importlib.import_module(f"fiberlab.{module}"), name)]
    assert unbound == []


def _keyed_blake2b_calls(tree: ast.AST) -> list[ast.Call]:
    """Every call of blake2b, plain or as an attribute, with a key= keyword."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "blake2b"
            and any(keyword.arg == "key" for keyword in node.keywords)]


def test_only_actions_draws_under_the_seed():
    # actions._draws is the one draw rule; each walk kernel once built its
    # own keyed blake2b and copied the draw loop by hand, so a new draw rule
    # had three places to change
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(fiberlab.__file__).parent.glob("*.py"))}
    counts = {name: len(_keyed_blake2b_calls(tree)) for name, tree in trees.items()}
    assert {name: count for name, count in counts.items() if count} == {"actions.py": 1}
    draws = [node for node in trees["actions.py"].body if isinstance(node, ast.FunctionDef) and node.name == "_draws"]
    assert len(draws) == 1 and len(_keyed_blake2b_calls(draws[0])) == 1


def _scoped(tree: ast.AST, scope: str = ""):
    """(scope, node) for every node below tree, scope naming its enclosing classes and functions."""
    for node in ast.iter_child_nodes(tree):
        inner = f"{scope}.{node.name}".lstrip(".") if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else scope
        yield scope, node
        yield from _scoped(node, inner)


def test_one_support_and_one_inverse_cdf():
    # MarkovChainSpec._support is the one reading of which blocks are
    # positive, and driving._inverse_cdf the one reading of a uniform; the
    # coders, the diagnostics and the range paths once compared the
    # numerators with 0 or Pi's Fractions by hand, and the sampler and
    # emit_name each searched the cumulative sums their own way.  Only the
    # inverse CDF's guide table and actions._rank, which ranks box offsets,
    # not uniforms, call searchsorted, so no second search of uniforms grows back
    numerators = {"_pi_numerators", "_Pi_numerators"}
    compared, bisected, searched = set(), [], set()
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "searchsorted":
                searched.add((path.name, scope))
            if isinstance(node, ast.Import):
                bisected += [path.name for alias in node.names if alias.name.split(".")[0] == "bisect"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bisect":
                bisected.append(path.name)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                zero = any(isinstance(x, ast.Constant) and x.value == 0 for x in operands)
                if zero and any(getattr(y, "attr", None) in numerators for x in operands for y in ast.walk(x)):
                    compared.add((path.name, scope))
    assert bisected == []
    assert compared == {("driving.py", "MarkovChainSpec._support")}
    assert searched == {("driving.py", "_inverse_cdf"), ("driving.py", "_inverse_cdf.read"), ("actions.py", "_rank")}


def test_no_module_calls_unique():
    # np.unique loads numpy.ma on its first call (numpy 2.4), about 9 ms of
    # CPU and 1.7 MB of RSS; actions._rank ranks by a sort instead, for the
    # sparse z2 box and the block table's dense rank alike
    called = []
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unique":
                called.append((path.name, scope))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                called += [(path.name, name) for name in names + [a.name for a in node.names] if name.endswith(".ma")]
    assert called == []


def test_no_module_imports_hashlib_or_numpy_random():
    # hashlib maps OpenSSL's libcrypto (_hashlib, about 3.6 MB) although
    # fiberlab's one hash is the builtin _blake2.blake2b, and numpy.random
    # (about 2.5 MB, loaded at its first np.random access) would map it
    # again through secrets and hmac; driving._Uniforms is numpy's PCG64
    # stream bit for bit, so no module names either
    named, blake = [], set()
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                names = [f"{ast.unparse(node.value)}.random"]
            else:
                continue
            named += [(path.name, name) for name in names if name in ("hashlib", "numpy.random", "np.random")]
            blake.update(path.name for name in names if name.split(".")[0] == "_blake2")
    assert named == []
    assert blake == {"actions.py"}


# a fiberlab import and small verify-brudno, verify-ar, range and simulate
# runs, then the modules of the three library loads they must not make
FOOTPRINT_RUN = """
import sys
import fiberlab
from fiberlab.cli import main

for command, preset in (("verify-brudno", "z2-uniform"), ("verify-ar", "f2-markov"),
                        ("range", "z2-uniform"), ("simulate", "f2-markov")):
    assert main([command, "--preset", preset, "--n", "2000", "--k", "4", "--seed", "1", "--out", sys.argv[1]]) == 0
print(sorted(name for name in ("_hashlib", "hmac", "numpy.random") if name in sys.modules))
"""


def test_no_run_loads_openssl_or_numpy_random(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", FOOTPRINT_RUN, str(tmp_path)], check=True, env=env,
                            capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_no_module_generates_record_code():
    # the value types generate no code at import: the validated ones share
    # records.FrozenRecord's methods and the result bundles are NamedTuples;
    # dataclasses once compiled six methods for each of fourteen classes on
    # every import, about a tenth of a run's set-up
    imported = []
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [path.name for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                imported.append(path.name)
    assert imported == []
    bundles = (fiberlab.fiber.ExactAveragedEntropy, fiberlab.coding.EstimatorReport,
               fiberlab.coding.ArDecompositionReport, fiberlab.coding.TwoPassReport, fiberlab.actions.VisitRecord)
    assert all(issubclass(bundle, tuple) for bundle in bundles)


def test_one_chain_rule():
    # the draw rule chains each new word key from its parent's and draws it
    # in one loop; the free monoid's chain and the f2 tree's node keys were
    # once two hand-copied loops over the chain hasher, each before a second
    # pass that drew the keys
    copied = set()
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "copy" and ast.unparse(node.value) == "_CHAIN_HASHER":
                copied.add((path.name, scope))
    assert copied == {("actions.py", "_draws.draws")}


def _is_min_below_zero(node: ast.AST) -> bool:
    """Whether node compares x.min() < 0: a letter range check, not the builtin min(...) of a probability check."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "attr", None) == "min" and isinstance(node.ops[0], ast.Lt)
            and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 0)


def test_one_letters_rule_and_one_block_refusal():
    # actions._integers reads every letters argument and driving._refuse_blocks
    # refuses every coder's first offending block; driving._letters_of once
    # read letters beside _integers, walk and fiber._first_symbols checked
    # letter ranges by hand, and the plain and conditional coders each wrote
    # the first-offending-row refusal out
    refused, ranged, readers = set(), set(), []
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ModelMismatchError"):
                refused.add((path.name, scope))
            elif _is_min_below_zero(node):
                ranged.add((path.name, scope))
            elif isinstance(node, ast.FunctionDef) and node.name == "_letters_of":
                readers.append(path.name)
    assert refused == {("driving.py", "_refuse_blocks")}
    assert ranged == {("actions.py", "_integers")}
    assert readers == []


def test_only_actions_calls_operator_index():
    # actions._integer is the one integer rule; config once converted its
    # integers by an operator.index of its own, beside the one that
    # ExperimentConfig applied, and the two gave different messages
    found = set()
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "index":
                if isinstance(node.value, ast.Name) and node.value.id == "operator":
                    found.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                found.update(path.name for alias in node.names if alias.name == "index")
    assert found == {"actions.py"}


def test_no_module_reads_the_environment_or_starts_workers():
    # a run is a function of (config, seeds) alone, and runs in the one
    # process whose CPU time and peak RSS it reports: no module, the CLI
    # included, reads an environment variable or imports a worker pool
    # (concurrent.futures or multiprocessing), lazily or not
    pools = ("concurrent", "multiprocessing")
    found = []
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] in pools or name in ("environ", "environb", "getenv")]
    assert found == []


def test_each_seed_is_sampled_and_named_in_one_place():
    # the CLI samples and names each seed's path once, in _seed_cells, and
    # codes every cell on a prefix of it; _brudno_cell, cmd_simulate and
    # ar_decomposition_check once each sampled and named a path of their own
    called = set()
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("sample_trajectory", "emit_name"):
                    called.add((name, path.name, scope))
    assert called == {("emit_name", "cli.py", "_seed_cells"), ("sample_trajectory", "cli.py", "_seed_cells"),
                      ("sample_trajectory", "actions.py", "range_ratio_curve")}


def _function(tree: ast.AST, scope: str) -> ast.FunctionDef:
    (node,) = [node for inner, node in _scoped(tree) if isinstance(node, ast.FunctionDef)
               and f"{inner}.{node.name}".lstrip(".") == scope]
    return node


def test_every_verdict_is_decided_in_integers():
    # eq15 and the information floor were float comparisons padded by
    # coding._TOL = 1e-12; eq15 is now certified by the length bound and the
    # floor decided by coding._no_undershoot
    tolerances = []
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            tolerances += [(path.name, name.id) for target in targets if target is not None
                           for name in ast.walk(target) if isinstance(name, ast.Name) and "TOL" in name.id.upper()]
    assert tolerances == []

    tree = ast.parse(Path(fiberlab.coding.__file__).read_text(encoding="utf-8"))
    assigned = {}
    for node in ast.walk(_function(tree, "_conditional")):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                assigned.setdefault(ast.unparse(target), []).append(node.value)

    def called(value):
        """The name of the function a value is the result of, through a local bound once; None for None."""
        if isinstance(value, ast.Name):
            (value,) = assigned[value.id]
        if isinstance(value, ast.Constant):
            return value.value
        if not isinstance(value, ast.Call):
            return ast.unparse(value)
        return value.func.attr if isinstance(value.func, ast.Attribute) else ast.unparse(value.func)

    assert {called(value) for value in assigned["eq15_ok"]} == {None, "verify_length_bounds"}
    assert {called(value) for value in assigned["no_undershoot_ok"]} == {None, "_no_undershoot"}
    # the deciders themselves form no float: no float literal, true division, float() or log
    for scope in ("_no_undershoot", "BlockCodebookFamily.verify_length_bounds"):
        for node in ast.walk(_function(tree, scope)):
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), scope
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)), scope
            assert not (isinstance(node, ast.Call) and ast.unparse(node.func) in ("float", "math.log2")), scope


def _axis(call: ast.Call):
    """The axis a reduction call names, by keyword or as its first argument; None when it names none."""
    given = [keyword.value for keyword in call.keywords if keyword.arg == "axis"] or call.args[:1]
    return given[0].value if given and isinstance(given[0], ast.Constant) else None


def test_block_patterns_are_swept_in_one_function_with_no_cube():
    # coding._block_patterns compares the steps of a table of block walks
    # one column at a time, for the coders, decode and codebook_for alike;
    # the coders once formed a (rows, k, k) cube,
    # first[:, :, None] == first[:, None, :], and took its argmax over axis 2
    cubes, swept = [], set()
    for path in sorted(Path(fiberlab.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                subscripts = [x for x in operands if isinstance(x, ast.Subscript)]
                if any(isinstance(x.slice, ast.Tuple) and len(x.slice.elts) >= 3 for x in subscripts):
                    cubes.append((path.name, scope, ast.unparse(node)))
                # two steps of one table tested for equality: where two steps meet at one coordinate
                same_table = len(subscripts) > 1 and len({ast.unparse(x.value) for x in subscripts}) == 1
                if same_table and any(isinstance(op, ast.Eq) for op in node.ops):
                    swept.add((path.name, scope))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "argmax" and _axis(node) == 2:
                cubes.append((path.name, scope, ast.unparse(node)))
    assert cubes == []
    assert swept == {("coding.py", "_block_patterns")}
