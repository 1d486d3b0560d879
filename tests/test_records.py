"""The validated value classes against stdlib frozen dataclass twins.

Each class shares records.FrozenRecord's methods, which generate no code.
Its twin is a dataclasses.dataclass(frozen=True) with the fields, defaults
and comparison flags of the class's declaration and no validation; the
two must agree on repr, ==, hash, refused assignment and deletion, and
how a call binds its arguments.
"""

import dataclasses
import functools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fiberlab import (
    Alphabet,
    BinaryCodebook,
    DrivingTrajectory,
    EncodedStream,
    ExperimentConfig,
    FiberSystemSpec,
    MarkovChainSpec,
    OrbitName,
    Word,
)
from fiberlab.config import _KEYS
from fiberlab.records import FrozenRecord

HALF = Fraction(1, 2)
BINARY = Alphabet(("0", "1"))
FAIR = MarkovChainSpec.bernoulli(BINARY, (HALF, HALF))
SKEWED = MarkovChainSpec.bernoulli(BINARY, (Fraction(1, 3), Fraction(2, 3)))
FIBER = FiberSystemSpec("free-monoid", BINARY, (HALF, HALF))
HIDDEN = dataclasses.field(default=None, repr=False, compare=False)

# per class: its declared fields as make_dataclass takes them, the positional
# arguments of a valid call, and for each field another valid value
CASES = {
    Alphabet: (["symbols"], (("a", "b"),), {"symbols": ("a", "c")}),
    Word: (["alphabet", ("letters", object, ())], (BINARY, (1, 0)),
           {"alphabet": Alphabet(("0", "1", "2")), "letters": (1, 1)}),
    MarkovChainSpec: (["alphabet", "pi", "Pi"], (BINARY, (HALF, HALF), ((HALF, HALF), (HALF, HALF))),
                      {"alphabet": Alphabet(("x", "y")), "pi": ("1/3", "2/3"), "Pi": ((1, 0), (0, 1))}),
    DrivingTrajectory: (["spec", "seed", "letters"], (FAIR, 3, np.array([0, 1, 1], dtype=np.uint8)),
                        {"spec": SKEWED, "seed": 4, "letters": np.array([1], dtype=np.uint8)}),
    FiberSystemSpec: (["action_kind", "fiber_alphabet", "p"], ("free-monoid", BINARY, (HALF, HALF)),
                      {"action_kind": "z2", "fiber_alphabet": Alphabet(("a", "b")), "p": ("1/4", "3/4")}),
    OrbitName: (["fiber_spec", "driving", "letters", ("seed", object, None), ("first", object, HIDDEN)],
                (FIBER, np.array([0, 1, 1]), np.array([1, 0, 1]), 7),
                {"fiber_spec": FiberSystemSpec("free-monoid", BINARY, ("1/4", "3/4")), "driving": np.array([1, 1, 1]),
                 "letters": np.array([0, 0, 0]), "seed": 8, "first": np.array([0, 0, 0])}),
    EncodedStream: (["bits", "m", "k", "tail"], ("0101", 1, 2, "01"),
                    {"bits": "1101", "m": 2, "k": 3, "tail": "1"}),
    BinaryCodebook: (["entries"], ({"a": "0", "b": "10"},), {"entries": {"a": "1"}}),
    ExperimentConfig: (["driving", "fiber", "horizons", "block_lengths", "seeds", "out", ("format", object, "csv"),
                        ("tolerance", object, 0.1)],
                       (FAIR, FIBER, (4, 8), (2,), (1, 2), Path("reports")),
                       {"driving": SKEWED, "fiber": FiberSystemSpec("free-monoid", BINARY, ("1/4", "3/4")),
                        "horizons": (5,), "block_lengths": (3,), "seeds": (9,), "out": Path("elsewhere"),
                        "format": "json", "tolerance": 0.5}),
}
CLASSES = list(CASES)


@functools.cache
def twin(cls):
    """The stdlib frozen dataclass of cls's declaration, under cls's name, one per class."""
    return dataclasses.make_dataclass(cls.__name__, CASES[cls][0], frozen=True)


def outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # the two sides must fail alike, whatever the failure
        return type(exc)


def mirror(record):
    """The twin holding the record's own field objects."""
    model = twin(type(record))
    return model(*(getattr(record, field.name) for field in dataclasses.fields(model)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_equality_and_hash_agree_with_the_twin(cls):
    _, args, others = CASES[cls]
    record = cls(*args)
    assert repr(record) == repr(mirror(record))
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(mirror(record)))
    given = dict(zip(twin(cls).__match_args__, args))
    variants = [cls(*args)] + [cls(**{**given, name: value}) for name, value in others.items()]
    for other in variants:
        assert outcome(lambda: record == other) == outcome(lambda: mirror(record) == mirror(other))
        assert outcome(lambda: record != other) == outcome(lambda: mirror(record) != mirror(other))
    # a record equals no twin and nothing of another class
    assert record != mirror(record) and record != object() and not record == args


def test_variants_differ_where_a_field_does():
    # the agreement above would hold if both sides called everything equal
    assert Alphabet(("a", "b")) != Alphabet(("a", "c"))
    assert hash(Word(BINARY, (1, 0))) == hash(Word(BINARY, [1, 0])) != hash(Word(BINARY, (1, 1)))
    assert FAIR == MarkovChainSpec.bernoulli(BINARY, ("1/2", 0.5)) != SKEWED


def test_records_of_two_classes_are_never_equal():
    class Symbols(FrozenRecord):
        symbols: tuple

    assert Symbols(("a", "b")) != Alphabet(("a", "b")) and Alphabet(("a", "b")) != Symbols(("a", "b"))
    assert Symbols(("a", "b")) == Symbols(("a", "b"))
    assert repr(Symbols(("a", "b"))) == f"{Symbols.__qualname__}(symbols=('a', 'b'))"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_are_refused_as_by_the_twin(cls):
    record = cls(*CASES[cls][1])
    copy = mirror(record)
    for name in [*CASES[cls][2], "other"]:
        for act in (lambda target: setattr(target, name, 1), lambda target: delattr(target, name)):
            with pytest.raises(AttributeError) as got:
                act(record)
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                act(copy)
            assert str(got.value) == str(want.value)
    assert repr(record) == repr(cls(*CASES[cls][1]))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_calls_bind_by_position_or_keyword_with_the_twin_defaults(cls, monkeypatch):
    _, args, _ = CASES[cls]
    model = twin(cls)
    names = [field.name for field in dataclasses.fields(model)]
    defaults = {field.name: field.default for field in dataclasses.fields(model)
                if field.default is not dataclasses.MISSING}
    required = [name for name in names if name not in defaults]
    by_position = repr(cls(*args))
    assert repr(cls(**dict(zip(names, args)))) == by_position
    assert repr(cls(*args[:1], **dict(zip(names[1:], args[1:])))) == by_position
    # a compared field left out takes the twin's default (first is the walk, when left out)
    shortest = cls(*args[: len(required)])
    assert {name: getattr(shortest, name) for name in defaults if name != "first"} == {
        name: value for name, value in defaults.items() if name != "first"}
    # a call the twin refuses is refused with TypeError
    for bad_args, bad_kwargs in [((*args, *[None] * len(names)), {}), (args[: len(required) - 1], {}),
                                 (args, {"unknown": 1}), (args, {names[0]: args[0]})]:
        with pytest.raises(TypeError):
            model(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)

    # __post_init__ runs once, after every field is set to the value passed or its default
    seen = []
    validate = cls.__post_init__

    def watched(self):
        seen.append({name: vars(self).get(name, "unset") for name in names})
        validate(self)

    monkeypatch.setattr(cls, "__post_init__", watched)
    cls(*args)
    assert len(seen) == 1 and all(seen[0][name] is value for name, value in zip(names, args))
    assert {name: seen[0][name] for name in names[len(args):]} == {name: defaults[name] for name in names[len(args):]}


def test_first_is_left_out_of_equality_and_repr():
    name = OrbitName(FIBER, np.array([0, 1, 1]), np.array([1, 0, 1]), 7)
    assert name.first.tolist() == [0, 1, 2]
    other = OrbitName(FIBER, name.driving, name.letters, 7, first=np.array([0, 0, 0]))
    assert name == other and repr(name) == repr(other)
    assert "first" not in repr(name) and repr(name) == repr(mirror(name))
    assert (name == other) == (mirror(name) == mirror(other))


def test_config_keys_are_the_config_fields_and_preset():
    assert _KEYS == {"driving", "fiber", "horizons", "block_lengths", "seeds", "out", "format", "tolerance", "preset"}
