"""Experiment configuration: JSON schema, named system presets and caps.

ExperimentConfig is the one validator.  It checks and converts each value
once, by the library's rules (actions._integer, _check_seed and _real),
and holds tuples of int, a float tolerance and a Path however it was
built.  load_config merges overrides, refuses unknown keys, builds the
specs and passes every other value on as the JSON gave it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .actions import _check_seed, _integer, _real, check_driving_size
from .driving import PRESETS, MarkovChainSpec, _listed, driving_preset, is_irreducible, is_stationary
from .fiber import ENUMERATION_CAP, FiberSystemSpec, _exceeds_cap
from .records import FrozenRecord
from .words import Alphabet

# the longest horizon a config may ask for.  Peak RSS (ru_maxrss) and CPU
# time of one command at n = 1e7, seed 1, in a fresh process on a 2-vCPU
# x86-64 host (Python 3.11, numpy 2.4), with uint8 letters and symbols,
# int32 first visits and an int32 pair table, from one run each:
# verify-brudno on z2-uniform at k = 8 117 MB and 2.2 s, verify-ar on
# f2-markov at k = 8 115 MB and 9.3 s, range on z2-uniform 93 MB and
# 0.6 s, CSV simulate on z2-uniform 98 MB and 8.4 s.  The host's speed
# drifts, so a rerun's CPU time can differ by a quarter
MAX_HORIZON = 10 ** 7

SYSTEM_PRESETS = tuple(PRESETS)


class ConfigError(ValueError):
    """The experiment configuration is malformed or exceeds a cap."""


def system_preset(name: str) -> tuple[MarkovChainSpec, FiberSystemSpec]:
    """A named complete system: the preset's driving chain, and uniform binary symbols on its action."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(SYSTEM_PRESETS)}")
    half = Fraction(1, 2)
    return driving_preset(name), FiberSystemSpec(PRESETS[name][0], Alphabet(("0", "1")), (half, half))


def _converted(key: str, value, rule):
    """rule(value), a refusal raised as ConfigError; a bool, which every rule
    refuses, is named as JSON spells it."""
    try:
        return rule(value)
    except ValueError as exc:
        if isinstance(value, bool):
            raise ConfigError(f"{key}: {str(value).lower()} is a boolean, not a number ({exc})") from None
        raise ConfigError(str(exc)) from None


def _each(key: str, values, rule) -> tuple:
    """rule(value) for each of a list of values (driving._listed, which refuses a string), as a tuple."""
    try:
        values = _listed(values, key)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tuple(_converted(key, value, rule) for value in values)


class ExperimentConfig(FrozenRecord):
    """One experiment: the system, the horizons, block lengths and seeds, and where reports go.

    A validated record (records.FrozenRecord): every value is converted
    once, by the library's rules, and the whole is checked against the caps.
    """

    driving: MarkovChainSpec
    fiber: FiberSystemSpec
    horizons: tuple[int, ...]
    block_lengths: tuple[int, ...]
    seeds: tuple[int, ...]
    out: Path
    format: str = "csv"
    tolerance: float = 0.1

    def check_codebook_cap(self) -> None:
        """Refuse a block length whose pair blocks pass the enumeration cap.

        The block coders of verify-brudno and verify-ar are checked against
        (|driving| * |fiber|)**k <= ENUMERATION_CAP; the other commands have
        caps of their own, on the path they take.
        """
        cap_base = self.driving.alphabet.size * self.fiber.fiber_alphabet.size
        for k in self.block_lengths:
            if _exceeds_cap(cap_base, k):
                raise ConfigError(
                    f"block length {k} exceeds the enumeration cap "
                    f"({cap_base}**{k} > 2**{ENUMERATION_CAP.bit_length() - 1})"
                )

    def __post_init__(self):
        # the specs come first, as every later check reads them; a preset
        # name or a spec object's dict is load_config's to build
        for key, kind in (("driving", MarkovChainSpec), ("fiber", FiberSystemSpec)):
            if not isinstance(getattr(self, key), kind):
                raise ConfigError(f"{key} must be a {kind.__name__}, not {getattr(self, key)!r}")
        # every value is converted before any comparison, and kept converted
        horizons = _each("horizons", self.horizons, lambda n: _integer(n, "a horizon", 0))
        block_lengths = _each("block_lengths", self.block_lengths, lambda k: _integer(k, "a block length", 1))
        seeds = _each("seeds", self.seeds, _check_seed)
        tolerance = _converted("tolerance", self.tolerance, lambda t: _real(t, "tolerance"))
        try:
            out = Path(self.out)
        except TypeError:
            raise ConfigError(f"out must be a path, not {self.out!r}") from None
        for key, value in (("horizons", horizons), ("block_lengths", block_lengths), ("seeds", seeds),
                           ("tolerance", tolerance), ("out", out)):
            object.__setattr__(self, key, value)
        if not horizons:
            raise ConfigError("at least one horizon is required")
        if list(horizons) != sorted(horizons):
            raise ConfigError("horizons must be ascending")
        if horizons[-1] > MAX_HORIZON:
            raise ConfigError(f"horizon {horizons[-1]} outside [0, {MAX_HORIZON}]")
        if not block_lengths:
            raise ConfigError("at least one block length is required")
        if not seeds:
            raise ConfigError("at least one seed is required")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not 0 <= tolerance < math.inf:  # NaN fails every comparison
            raise ConfigError(f"tolerance must be a finite nonnegative number, not {tolerance}")
        try:
            check_driving_size(self.fiber.action_kind, self.driving.alphabet.size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # block contexts are coded under the stationary block law
        if not is_stationary(self.driving):
            raise ConfigError("the driving chain must be stationary: pi must be invariant under Pi")
        # every exact value a report quotes averages over the chain's runs,
        # which one communicating class must carry
        if not is_irreducible(self.driving):
            raise ConfigError(
                "the driving chain must be irreducible: the states reachable from pi > 0 must all "
                "communicate under Pi > 0"
            )


# the keys a config document may hold, and those of its driving and fiber
# spec objects; any other key is refused, not ignored
_KEYS = {*ExperimentConfig._fields, "preset"}
_SPEC_KEYS = {"driving": {"alphabet", "pi", "Pi"}, "fiber": {"action", "fiber_alphabet", "p"}}
# the values of the keys a document leaves out that ExperimentConfig has no default for
_DEFAULTS = {"horizons": (5000,), "block_lengths": (4,), "seeds": (1, 2), "out": "fiberlab-reports"}


def _spec_pair(data: dict) -> tuple[MarkovChainSpec, FiberSystemSpec]:
    driving, fiber = data.get("driving"), data.get("fiber")
    base_driving, base_fiber = (None, None) if data.get("preset") is None else system_preset(data["preset"])
    if isinstance(driving, str):
        driving = driving_preset(driving)
    elif isinstance(driving, dict):
        driving = MarkovChainSpec.from_dict(driving)
    elif driving is None:
        driving = base_driving
    else:
        raise ConfigError("driving must be a preset name or a spec object")
    if isinstance(fiber, dict):
        fiber = FiberSystemSpec.from_dict(fiber)
    elif fiber is None:
        fiber = base_fiber
    else:
        raise ConfigError("fiber must be a spec object")
    if driving is None or fiber is None:
        raise ConfigError("config must name a preset or give both driving and fiber specs")
    return driving, fiber


def load_config(data: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config from a JSON document plus CLI overrides; an unknown key is refused."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None and value != []:
            merged[key] = value
    unknown = [str(key) for key in merged if key not in _KEYS]
    for name, known in _SPEC_KEYS.items():
        if isinstance(merged.get(name), dict):
            unknown += [f"{name}.{key}" for key in merged[name] if key not in known]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        driving, fiber = _spec_pair(merged)
        values = {key: value for key, value in merged.items() if key not in ("preset", "driving", "fiber")}
        return ExperimentConfig(driving, fiber, **{**_DEFAULTS, **values})
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config_file(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(data, overrides)
