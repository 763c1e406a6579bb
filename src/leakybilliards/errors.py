"""Exception taxonomy.

Every error carries a stable machine-readable ``code`` ("area.reason")
so batch callers can match on codes instead of class identity.  The CLI
maps code prefixes to exit codes.
"""

from __future__ import annotations

import math


class LeakyBilliardsError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidArgumentError(LeakyBilliardsError):
    code = "config.bad_argument"


class ConfigError(LeakyBilliardsError):
    code = "config.invalid"


def check_number(value, key: str, kind: type):
    """value as kind if it is a JSON integer (kind int) or a finite JSON
    number (kind float), else config.invalid; never coerces bools or strings."""
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    if not ok:
        need = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {need}, got {value!r}")
    return kind(value)


def check_numbers(value, key: str, kinds) -> tuple:
    """value as a tuple of check_number results; kinds is one kind for a
    list of any length, or one kind per entry of a list of fixed length."""
    fixed = not isinstance(kinds, type)
    if isinstance(value, list) and not fixed:
        kinds = (kinds,) * len(value)
    if not isinstance(value, list) or len(value) != len(kinds):
        size = f" of length {len(kinds)}" if fixed else ""
        raise ConfigError(f"{key} must be a list{size} of numbers, got {value!r}")
    return tuple(check_number(x, key, k) for x, k in zip(value, kinds))


def _check_type(value, key: str, kind: type):
    if not isinstance(value, kind):
        need = {dict: "an object", list: "a list", bool: "true or false"}[kind]
        raise ConfigError(f"{key} must be {need}, got {value!r}")
    return value


def _check_choice(value, key: str, choices):
    if value not in choices:
        raise ConfigError(f"{key} must be one of {list(choices)}, got {value!r}")
    return value


_REQUIRED = object()


class ConfigReader:
    """One JSON config object, read field by field.

    Each read names a field and its JSON type and returns its value, or
    the default when the field is absent; a read without a default makes
    the field required.  Nothing is coerced: integer() takes a JSON
    integer (never a bool), at least minimum if one is given, number()
    a finite number (returned as a float), numbers() a list of them,
    choice() one of the given strings, object() any value, for the
    reader of that object.  close() rejects
    every key that no read asked for, so a misspelt field is an error,
    never a default.
    """

    def __init__(self, obj, where: str):
        self._obj = _check_type(obj, where, dict)
        self._where = where
        self._seen = set()

    def _get(self, key: str, default, check, arg):
        self._seen.add(key)
        if key in self._obj:
            return check(self._obj[key], f"{self._where}.{key}", arg)
        if default is _REQUIRED:
            raise ConfigError(f"{self._where} is missing required field {key!r}")
        return default

    def integer(self, key: str, default=_REQUIRED, minimum=None):
        value = self._get(key, default, check_number, int)
        if minimum is not None and value is not None and value < minimum:
            raise ConfigError(f"{self._where}.{key} must be at least {minimum}, got {value}")
        return value

    def number(self, key: str, default=_REQUIRED):
        return self._get(key, default, check_number, float)

    def numbers(self, key: str, kinds, default=_REQUIRED):
        return self._get(key, default, check_numbers, kinds)

    def choice(self, key: str, choices, default=_REQUIRED):
        return self._get(key, default, _check_choice, choices)

    def flag(self, key: str, default=_REQUIRED):
        return self._get(key, default, _check_type, bool)

    def items(self, key: str, default=_REQUIRED):
        return self._get(key, default, _check_type, list)

    def object(self, key: str, default=_REQUIRED):
        return self._get(key, default, lambda value, key, arg: value, None)

    def objects(self, key: str):
        """A reader for each object of a list field, closed once the
        caller moves past it."""
        for i, item in enumerate(self.items(key)):
            reader = ConfigReader(item, f"{self._where}.{key}[{i}]")
            yield reader
            reader.close()

    def close(self) -> None:
        unknown = sorted(self._obj.keys() - self._seen)
        if unknown:
            raise ConfigError(f"{self._where} has unknown field(s) {unknown}; "
                              f"it reads only {sorted(self._seen)}")


# geometry

class OverlappingScatterersError(LeakyBilliardsError):
    code = "geometry.overlap"


class InfiniteHorizonError(LeakyBilliardsError):
    """Raised with the witness corridor direction attached."""

    code = "geometry.infinite_horizon"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BadScattererIdError(LeakyBilliardsError):
    code = "geometry.bad_scatterer"


class ROutOfRangeError(LeakyBilliardsError):
    code = "geometry.r_range"


# billiard map

class NearTangencyError(LeakyBilliardsError):
    code = "billiard.near_tangency"


class NoCollisionError(LeakyBilliardsError):
    """An uncensored, non-grazing flight has no hit within the
    certified l_max (see geometry.first_hit_batch).  The certificate
    proves that every flight leaving a scatterer hits within l_max
    unless it grazes, so this marks a broken invariant."""

    code = "billiard.no_collision"


# holes

class HoleTouchesScattererError(LeakyBilliardsError):
    code = "holes.touches_scatterer"


class HoleTooLargeError(LeakyBilliardsError):
    code = "holes.too_large"


# measures

class GridMismatchError(LeakyBilliardsError):
    code = "measures.grid_mismatch"


class EmptySurvivorSetError(LeakyBilliardsError):
    code = "measures.empty_survivors"


# escape estimation

class StarvedSampleError(LeakyBilliardsError):
    code = "escape.starved_sample"


class AllEscapedError(LeakyBilliardsError):
    code = "escape.all_escaped"


class ExtinctionError(LeakyBilliardsError):
    code = "escape.extinction"


# tower

class HoleTooBigError(LeakyBilliardsError):
    code = "tower.hole_too_big"


class NotMixingError(LeakyBilliardsError):
    code = "tower.not_mixing"


class BadTailError(LeakyBilliardsError):
    code = "tower.bad_tail"


class DepthExhaustedError(LeakyBilliardsError):
    code = "tower.depth_exhausted"


class NoConvergenceError(LeakyBilliardsError):
    code = "tower.no_convergence"


class NotStabilizedError(LeakyBilliardsError):
    code = "tower.not_stabilized"


class NotMarkovError(LeakyBilliardsError):
    code = "tower.not_markov"


class ReducibleSurvivingGraphError(LeakyBilliardsError):
    code = "tower.reducible_graph"


# artifacts

class ArtifactIOError(LeakyBilliardsError):
    code = "io.write_failed"
