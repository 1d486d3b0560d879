"""Experiment configuration: JSON schema, named system presets and caps."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .actions import _check_seed, _integer, _real, check_driving_size
from .driving import PRESETS, MarkovChainSpec, driving_preset, is_stationary
from .fiber import ENUMERATION_CAP, FiberSystemSpec, _exceeds_cap
from .words import Alphabet

# the longest horizon a config may ask for.  Peak RSS (ru_maxrss) and CPU
# time of one cell at n = 1e7, seed 1, on a 2-vCPU x86-64 host (Python
# 3.11, numpy 2.4), with uint8 letters and symbols and int32 first visits:
# verify-brudno on z2-uniform at k = 8 242 MB and 5.5 s, verify-ar on
# f2-markov at k = 8 268 MB and 15-19 s, range on z2-uniform 229 MB and
# 1.5 s, CSV simulate on z2-uniform 242 MB and 26-30 s
MAX_HORIZON = 10 ** 7

SYSTEM_PRESETS = tuple(PRESETS)

# the keys a config document may hold, and those of its driving and fiber
# spec objects; any other key is refused, not ignored
_KEYS = {"preset", "driving", "fiber", "horizons", "block_lengths", "seeds", "out", "format", "tolerance"}
_SPEC_KEYS = {"driving": {"alphabet", "pi", "Pi"}, "fiber": {"action", "fiber_alphabet", "p"}}


class ConfigError(ValueError):
    """The experiment configuration is malformed or exceeds a cap."""


def system_preset(name: str) -> tuple[MarkovChainSpec, FiberSystemSpec]:
    """A named complete system: the preset's driving chain, and uniform binary symbols on its action."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(SYSTEM_PRESETS)}")
    half = Fraction(1, 2)
    return driving_preset(name), FiberSystemSpec(PRESETS[name][0], Alphabet(("0", "1")), (half, half))


@dataclass(frozen=True)
class ExperimentConfig:
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
        # the library's one rule for integers, seeds and reals, before any comparison
        try:
            for n in self.horizons:
                _integer(n, "a horizon")
            for k in self.block_lengths:
                _integer(k, "a block length")
            for s in self.seeds:
                _check_seed(s)
            _real(self.tolerance, "tolerance")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.horizons:
            raise ConfigError("at least one horizon is required")
        if list(self.horizons) != sorted(self.horizons):
            raise ConfigError("horizons must be ascending")
        for n in self.horizons:
            if not 0 <= n <= MAX_HORIZON:
                raise ConfigError(f"horizon {n} outside [0, {MAX_HORIZON}]")
        if not self.block_lengths:
            raise ConfigError("at least one block length is required")
        if min(self.block_lengths) < 1:
            raise ConfigError("block lengths must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not 0 <= self.tolerance < math.inf:  # NaN fails every comparison
            raise ConfigError(f"tolerance must be a finite nonnegative number, not {self.tolerance}")
        try:
            check_driving_size(self.fiber.action_kind, self.driving.alphabet.size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # block contexts are coded under the stationary block law
        if not is_stationary(self.driving):
            raise ConfigError("the driving chain must be stationary: pi must be invariant under Pi")


def _spec_pair(data: dict) -> tuple[MarkovChainSpec, FiberSystemSpec]:
    preset = data.get("preset")
    driving = data.get("driving")
    fiber = data.get("fiber")
    if preset is not None:
        base_driving, base_fiber = system_preset(preset)
    else:
        base_driving = base_fiber = None
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


def _not_boolean(key: str, value):
    # JSON true and false load as bool, a subclass of int that float() and
    # operator.index would read as 1 and 0
    if isinstance(value, bool):
        raise ConfigError(f"{key}: {str(value).lower()} is a boolean, not a number")
    return value


def _integers(merged: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    # operator.index refuses a float or string where int() would truncate or parse it
    return tuple(operator.index(_not_boolean(key, x)) for x in merged.get(key, default))


def _tolerance(merged: dict) -> float:
    # a real number, refused as ExperimentConfig refuses it, then held as a
    # float; float() alone would parse a string such as "0.5"
    value = _not_boolean("tolerance", merged.get("tolerance", ExperimentConfig.tolerance))
    try:
        return float(_real(value, "tolerance"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except OverflowError:
        # a JSON integer such as 10**400, which float() cannot hold
        raise ConfigError("tolerance must be a finite nonnegative number, not one past the float range") from None


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
        return ExperimentConfig(
            driving=driving,
            fiber=fiber,
            horizons=_integers(merged, "horizons", (5000,)),
            block_lengths=_integers(merged, "block_lengths", (4,)),
            seeds=_integers(merged, "seeds", (1, 2)),
            out=Path(merged.get("out", "fiberlab-reports")),
            format=str(merged.get("format", ExperimentConfig.format)),
            tolerance=_tolerance(merged),
        )
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
