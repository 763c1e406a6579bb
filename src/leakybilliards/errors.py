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
    """A ray exceeded the search reach without hitting a scatterer."""

    code = "billiard.no_collision"


class DifferentScatterersError(LeakyBilliardsError):
    code = "billiard.different_scatterers"


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
