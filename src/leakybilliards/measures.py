"""Initial measures, histogram estimators, and comparison metrics.

The stationary measure of the collision map has density cos(phi) in
(r, phi) on each scatterer, normalized by twice the total perimeter.
Initial ensembles are drawn from that measure directly (inverse CDF in
phi: sin(phi) = 2u - 1 is uniform) or reweighted by a positive
Lipschitz factor via rejection.  sample_initial returns ensembles as
billiard_map.State; the velocity is built from sin(phi) with sqrt, so
no arcsin enters a trajectory.

Empirical measures live on a product grid: per scatterer, r_bins equal
arclength cells times phi_bins equal angle cells.  The analytic bin
masses of the stationary measure are proportional to dr * d(sin phi),
which gives an exact reference histogram for convergence tests at any
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import billiard_map as _bmap
from . import geometry as _geo
from . import open_dynamics as _od
from .errors import (
    ConfigReader,
    EmptySurvivorSetError,
    GridMismatchError,
    InvalidArgumentError,
)
from .streams import stream

DENSITY_KINDS = ("nu", "arc_cosine", "angle_ramp")

# pairs of fresh nu samples that noise_floor averages over
_NOISE_REPS = 3


@dataclass(frozen=True)
class DensitySpec:
    """Positive Lipschitz reweighting of the stationary measure.

    kind "nu" is the stationary measure itself.  "arc_cosine" modulates
    along the boundary, psi = 1 + amp*cos(2*pi*r/perimeter + phase);
    "angle_ramp" tilts in the angle, psi = 1 + amp*(2*phi/pi).  Both
    need |amp| < 1 so the density stays bounded away from zero.
    """

    kind: str = "nu"
    amp: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in DENSITY_KINDS:
            raise InvalidArgumentError(f"unknown density kind {self.kind!r}")
        if self.kind != "nu" and not abs(self.amp) < 1.0:
            raise InvalidArgumentError("need |amp| < 1 for a positive density")

    def weight(self, table, sid, r, phi):
        """Density relative to the stationary measure, sup-normalized by sup_weight."""
        if self.kind == "nu":
            return np.ones_like(np.asarray(r, dtype=float))
        if self.kind == "arc_cosine":
            perim = table.perimeters[np.asarray(sid, dtype=np.int64)]
            return 1.0 + self.amp * np.cos(
                2.0 * np.pi * np.asarray(r) / perim + self.phase
            )
        return 1.0 + self.amp * (2.0 * np.asarray(phi) / np.pi)

    @property
    def sup_weight(self) -> float:
        return 1.0 if self.kind == "nu" else 1.0 + abs(self.amp)


def density_from_json(obj) -> DensitySpec:
    """Read a density; amp exists only for kinds other than nu and phase
    only for arc_cosine, so a field the kind ignores is rejected."""
    f = ConfigReader(obj, "density")
    kind = f.choice("kind", DENSITY_KINDS, "nu")
    spec = DensitySpec(kind=kind,
                       amp=f.number("amp", 0.0) if kind != "nu" else 0.0,
                       phase=f.number("phase", 0.0) if kind == "arc_cosine" else 0.0)
    f.close()
    return spec


def _nu_draws(table, n: int, rng):
    """n draws of (sid, r, sin phi) from the stationary measure."""
    if n <= 0:
        raise InvalidArgumentError("sample size must be positive")
    u = rng.random(n) * table.total_perimeter
    # cum_perimeter starts at 0; clip because u can round onto the top edge
    sid = np.clip(
        np.searchsorted(table.cum_perimeter, u, side="right") - 1,
        0, len(table) - 1,
    ).astype(np.int64)
    del u
    r = np.mod(rng.random(n) * table.perimeters[sid], table.perimeters[sid])
    return sid, r, 2.0 * rng.random(n) - 1.0


def _state(table, sid, r, s):
    """billiard_map.State of boundary states with sin(phi) = s, filled
    open_dynamics.CHUNK states at a time, so the frame's temporaries
    are one chunk's."""
    state = _bmap.State(sid, np.empty((len(sid), 2)), np.empty((len(sid), 2)))
    for lo in range(0, len(sid), _od.CHUNK):
        part = slice(lo, lo + _od.CHUNK)
        c = np.sqrt((1.0 - s[part]) * (1.0 + s[part]))
        state.normal[part], state.velocity[part] = _geo.boundary_frame(
            table, sid[part], r[part], c, s[part])
    return state


def sample_nu(table, n: int, rng):
    """Draw n states from the stationary measure; returns (sid, r, phi)."""
    sid, r, s = _nu_draws(table, n, rng)
    return sid, r, np.arcsin(s)


def sample_nu_state(table, n: int, rng) -> _bmap.State:
    """sample_nu's draws as a billiard_map.State."""
    return _state(table, *_nu_draws(table, n, rng))


def sample_initial(table, spec: DensitySpec, n: int, rng) -> _bmap.State:
    """Draw n states with law psi d(nu) by rejection, as a
    billiard_map.State; deterministic given rng."""
    if spec.kind == "nu":
        return sample_nu_state(table, n, rng)
    out_sid = np.empty(n, dtype=np.int64)
    out_r = np.empty(n)
    out_s = np.empty(n)
    filled = 0
    sup = spec.sup_weight
    while filled < n:
        m = int((n - filled) * sup * 1.2) + 64
        sid, r, s = _nu_draws(table, m, rng)
        acc = rng.random(m) < spec.weight(table, sid, r, np.arcsin(s)) / sup
        take = min(int(acc.sum()), n - filled)
        idx = np.flatnonzero(acc)[:take]
        out_sid[filled:filled + take] = sid[idx]
        out_r[filled:filled + take] = r[idx]
        out_s[filled:filled + take] = s[idx]
        filled += take
    return _state(table, out_sid, out_r, out_s)


@dataclass
class EmpiricalMeasure:
    """Weighted histogram on the (scatterer, r, phi) product grid."""

    weights: np.ndarray  # shape (n_scatterers, r_bins, phi_bins)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def normalized(self) -> "EmpiricalMeasure":
        mass = self.total_mass
        if mass <= 0.0:
            raise EmptySurvivorSetError("cannot normalize a zero-mass histogram")
        return EmpiricalMeasure(self.weights / mass)


def check_bins(r_bins: int, phi_bins: int) -> None:
    """A histogram grid needs at least one bin on each axis."""
    if r_bins <= 0 or phi_bins <= 0:
        raise InvalidArgumentError("bin counts must be positive")


def bin_measure(table, sid, r, phi, r_bins: int, phi_bins: int) -> EmpiricalMeasure:
    """Histogram phase states; bins are equal in r and in phi."""
    check_bins(r_bins, phi_bins)
    sid = np.asarray(sid, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = len(table)
    ir = np.clip(
        (r / table.perimeters[sid] * r_bins).astype(np.int64), 0, r_bins - 1
    )
    iphi = np.clip(
        ((phi + 0.5 * np.pi) / np.pi * phi_bins).astype(np.int64), 0, phi_bins - 1
    )
    flat = (sid * r_bins + ir) * phi_bins + iphi
    counts = np.bincount(flat, minlength=s * r_bins * phi_bins)
    return EmpiricalMeasure(counts.reshape(s, r_bins, phi_bins).astype(float))


def nu_measure(table, r_bins: int, phi_bins: int) -> EmpiricalMeasure:
    """Exact bin masses of the stationary measure on the same grid."""
    check_bins(r_bins, phi_bins)
    edges = np.linspace(-0.5 * np.pi, 0.5 * np.pi, phi_bins + 1)
    phi_mass = np.diff(np.sin(edges))  # integral of cos over each angle cell
    r_mass = table.perimeters / r_bins  # equal cells in arclength
    w = r_mass[:, None, None] * np.broadcast_to(
        phi_mass[None, None, :], (len(table), r_bins, phi_bins)
    )
    return EmpiricalMeasure(np.ascontiguousarray(w) / (2.0 * table.total_perimeter))


def measure_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Total variation style L1 distance between normalized histograms."""
    if m1.weights.shape != m2.weights.shape:
        raise GridMismatchError(
            f"grid shapes differ: {m1.weights.shape} vs {m2.weights.shape}"
        )
    for m in (m1, m2):
        if abs(m.total_mass - 1.0) > 1e-9:
            raise InvalidArgumentError(
                "measure_distance expects normalized measures; call .normalized()"
            )
    return float(np.abs(m1.weights - m2.weights).sum())


def noise_floor(table, n: int, r_bins: int, phi_bins: int, master_seed: int) -> float:
    """Sampling-noise baseline: mean distance of paired fresh nu samples."""
    dists = []
    for rep in range(_NOISE_REPS):
        ma = bin_measure(
            table, *sample_nu(table, n, stream(master_seed, "noise-floor", rep, "a")),
            r_bins, phi_bins,
        ).normalized()
        mb = bin_measure(
            table, *sample_nu(table, n, stream(master_seed, "noise-floor", rep, "b")),
            r_bins, phi_bins,
        ).normalized()
        dists.append(measure_distance(ma, mb))
    return float(np.mean(dists))


def pushforward_residual(table, hole, sid, r, phi, r_bins: int, phi_bins: int):
    """Stationarity residual of a particle set under one open step.

    Returns (distance, mass_ratio, n_censored): the L1 distance between
    the normalized histogram of the input states and the normalized
    histogram of their surviving images, plus the surviving fraction of
    the uncensored population.  Small distance and mass_ratio close to
    the expected per-step survival indicate an approximately conditionally
    stationary set.
    """
    sid = np.asarray(sid, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    # the step writes the arrivals over its input, and state_from_phase
    # keeps the sid array it is given: give it a copy
    arrivals = _bmap.state_from_phase(table, sid.copy(), r, phi)
    cens, esc = _od.open_step_batch(table, hole, arrivals)
    alive = ~(cens | esc)
    n_cens = int(cens.sum())
    n_risk = len(sid) - n_cens
    if n_risk <= 0 or not np.any(alive):
        raise EmptySurvivorSetError("no uncensored survivors after one step")
    before = bin_measure(table, sid[~cens], r[~cens], phi[~cens],
                         r_bins, phi_bins).normalized()
    after = bin_measure(table, *_bmap.phase_of(table, arrivals.take(np.flatnonzero(alive))),
                        r_bins, phi_bins).normalized()
    return measure_distance(before, after), float(alive.sum()) / n_risk, n_cens
