"""Hole specifications and membership predicates.

Two kinds of leak:

* Type I removes an open boundary arc on one scatterer together with
  its full angle fiber; a trajectory escapes when a collision lands in
  the arc.
* Type II is an open disk in the domain, disjoint from every scatterer
  image; a trajectory escapes when a free flight crosses the disk.
  Membership is attributed to the arrival state of that flight, so the
  hole in phase space is the forward image of the crossing set.

Predicates are pure geometry and never mutate state; near-tangential
inputs propagate the censoring of the underlying collision search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import billiard_map as _bmap
from . import geometry as _geo
from .errors import (
    BadScattererIdError,
    HoleTooLargeError,
    HoleTouchesScattererError,
    InvalidArgumentError,
    NearTangencyError,
    ROutOfRangeError,
)


@dataclass(frozen=True)
class HoleSpec:
    """Leak description; kind is "I" (boundary arc) or "II" (domain disk).

    Type I uses scatterer_id and arc=(a, b): the open arc running
    counterclockwise from a to b (mod perimeter), so a > b wraps through
    the seam at r = 0.  Type II uses center and radius.
    """

    kind: str
    scatterer_id: int | None = None
    arc: tuple[float, float] | None = None
    center: tuple[float, float] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind == "I":
            if self.scatterer_id is None or self.arc is None:
                raise InvalidArgumentError("Type I hole needs scatterer_id and arc")
            if self.arc[0] == self.arc[1]:
                raise InvalidArgumentError("arc endpoints must differ")
        elif self.kind == "II":
            if self.center is None or self.radius is None:
                raise InvalidArgumentError("Type II hole needs center and radius")
            if not self.radius > 0:
                raise InvalidArgumentError("hole radius must be positive")
        else:
            raise InvalidArgumentError(f"unknown hole kind {self.kind!r}")

    def arc_length(self, table) -> float:
        if self.kind != "I":
            raise InvalidArgumentError("arc_length applies to Type I holes")
        perim = table.perimeters[self.scatterer_id]
        a, b = self.arc
        return (b - a) % perim


def type_i_hole(table, scatterer_id: int, a: float, b: float) -> HoleSpec:
    """Boundary-arc hole; endpoints are taken mod the perimeter."""
    sid = int(scatterer_id)
    if not 0 <= sid < len(table):
        raise BadScattererIdError(f"no scatterer with id {scatterer_id}")
    perim = table.perimeters[sid]
    a, b = float(float(a) % perim), float(float(b) % perim)
    hole = HoleSpec(kind="I", scatterer_id=sid, arc=(a, b))
    if hole.arc_length(table) >= perim:
        raise HoleTooLargeError("arc covers the whole scatterer")
    return hole


def type_ii_hole(table, center, radius: float, check_clearance: bool = True) -> HoleSpec:
    """Domain-disk hole; with check_clearance it must avoid all scatterers."""
    hole = HoleSpec(
        kind="II", center=(float(center[0]), float(center[1])), radius=float(radius)
    )
    if check_clearance:
        _require_clearance(table, hole.center, hole.radius)
    return hole


def _require_clearance(table, center, radius):
    """Reject a hole disk that meets any image of a scatterer.

    The nearest image of scatterer j lies at the displacement from the
    hole center wrapped into [-0.5, 0.5)^2, wherever the center is.
    """
    d = table.centers - np.asarray(center, dtype=float)
    shift = -np.floor(d + 0.5)
    w = d + shift
    bad = np.hypot(w[:, 0], w[:, 1]) <= table.radii + radius
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        dx, dy = (int(k) for k in shift[j])
        raise HoleTouchesScattererError(
            f"hole disk at {center} r={radius:.6g} meets scatterer {j} "
            f"(image offset ({dx},{dy}))"
        )


def hole_family(table, q0, h: float, offset: float = 0.0, *,
                kind: str) -> HoleSpec:
    """Concrete hole inside the h-neighborhood of the anchor q0.

    kind "I" reads q0 = (scatterer_id, r) and generates an arc centered
    at r+offset with half-width h-|offset|; kind "II" reads q0 = (x, y)
    and generates a disk at (x+offset, y) with radius h-|offset|.  Either
    way the hole nests inside the h-neighborhood of the anchor, so
    letting h shrink gives the shrinking families the estimators sweep
    over.  kind is never inferred: (0, 0.5) is an anchor of either kind.
    """
    if not h > 0:
        raise InvalidArgumentError("h must be positive")
    if abs(offset) >= h:
        raise HoleTooLargeError(f"|offset|={abs(offset)} leaves no room inside h={h}")
    half = h - abs(offset)
    if kind not in ("I", "II"):
        raise InvalidArgumentError(f"unknown hole kind {kind!r}")
    if kind == "I":
        sid = int(q0[0])
        if not 0 <= sid < len(table):
            raise BadScattererIdError(f"no scatterer with id {sid}")
        perim = table.perimeters[sid]
        r0 = float(q0[1])
        if not 0.0 <= r0 < perim:
            raise ROutOfRangeError(f"anchor r={r0} outside [0, {perim})")
        if 2.0 * half >= perim:
            raise HoleTooLargeError(
                f"arc length {2 * half:.6g} >= perimeter {perim:.6g}"
            )
        c = r0 + offset
        return HoleSpec(kind="I", scatterer_id=sid, arc=(
            float((c - half) % perim), float((c + half) % perim)))
    center = (float(q0[0]) + offset, float(q0[1]))
    hole = HoleSpec(kind="II", center=center, radius=half)
    _require_clearance(table, hole.center, hole.radius)
    return hole


def arc_contains(hole: HoleSpec, table, sid, r):
    """Vectorized open-arc membership for arrival coordinates."""
    a, b = hole.arc
    sid = np.asarray(sid)
    r = np.asarray(r)
    on = sid == hole.scatterer_id
    if a < b:
        return on & (r > a) & (r < b)
    return on & ((r > a) | (r < b))


def hole_image_offsets(table, hole: HoleSpec):
    """Integer translates of a Type II hole that a flight of length at most
    the certificate's l_max can cross, in geometry.image_lattice order."""
    if table.certificate is None:
        raise InvalidArgumentError("table has no horizon certificate")
    reach = table.certificate.l_max
    d0 = math.sqrt(0.5) + float(table.radii.max())
    kmax = int(math.ceil(reach + hole.radius + d0 + 1.0))
    kx, ky, _ = _geo.image_lattice(kmax)
    cx, cy = hole.center
    lb = np.hypot(cx + kx - 0.5, cy + ky - 0.5) - hole.radius - d0
    keep = lb <= reach
    return np.stack([kx[keep], ky[keep]], axis=1)


class EscapeImages(NamedTuple):
    """The images of a Type II hole that escape tests look at.

    offsets are the hole_image_offsets and centers the image centers.
    Row sid*N_SECTORS + s of rows lists, nearest first, the images a
    flight of length at most reach can cross when it leaves scatterer
    sid in direction sector s (geometry.sector_rows); counts[row] is the
    row's length, and the entries past it are padding, other images.
    """

    offsets: np.ndarray
    centers: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    reach: float


def escape_offsets(table, hole: HoleSpec | None):
    """EscapeImages of a Type II hole, None for any other hole."""
    if hole is None or hole.kind != "II":
        return None
    offsets = hole_image_offsets(table, hole)
    centers = np.asarray(hole.center) + offsets
    reach = _geo.sector_reach(table.certificate.l_max)
    rows, row_lb = _geo.sector_rows(
        table, centers, np.full(len(centers), hole.radius), reach)
    counts = np.count_nonzero(np.isfinite(row_lb), axis=1)
    return EscapeImages(offsets, centers, rows, counts, reach)


def segment_crosses_disk(start, direction, length, center, radius, offsets):
    """Whether unfolded segments pass strictly inside a disk image.

    start (N,2), direction (N,2) unit, length (N,); offsets (K,2) lists
    the integer translates worth checking.  Strict inequality: grazing
    the closed disk boundary does not count as a crossing.
    """
    start = np.atleast_2d(start)
    direction = np.atleast_2d(direction)
    length = np.atleast_1d(length)
    out = np.zeros(len(length), dtype=bool)
    r2 = radius * radius
    for ox, oy in offsets:
        wx = (center[0] + ox) - start[:, 0]
        wy = (center[1] + oy) - start[:, 1]
        tp = np.clip(wx * direction[:, 0] + wy * direction[:, 1], 0.0, length)
        dx = wx - tp * direction[:, 0]
        dy = wy - tp * direction[:, 1]
        out |= dx * dx + dy * dy < r2
    return out


def flight_crosses_hole(hole: HoleSpec, images: EscapeImages, flight):
    """segment_crosses_disk of each flight over images.offsets, the same
    bits from only the images in the flight's sector row.

    flight is a CollisionBatch.  The test is an OR of a strict < per
    image, and a flight of length at most images.reach leaving
    departure_id in its direction's sector can only cross images in its
    row, so testing the row, with the same per-image arithmetic, gives
    the same result; so does testing any further image.  Column 0 is
    therefore tested on every flight, row padding included, and column
    k only on the flights whose row is longer than k.  A longer flight
    is tested against every offset.
    """
    key = _geo.sector_keys(flight.departure_id, flight.direction)
    sx, sy = flight.start[:, 0], flight.start[:, 1]
    vx, vy = flight.direction[:, 0], flight.direction[:, 1]
    t = flight.flight_length
    r2 = hole.radius * hole.radius

    def column(k, sel):
        c = images.rows[key[sel], k]
        wx = images.centers[c, 0] - sx[sel]
        wy = images.centers[c, 1] - sy[sel]
        tp = np.clip(wx * vx[sel] + wy * vy[sel], 0.0, t[sel])
        dx = wx - tp * vx[sel]
        dy = wy - tp * vy[sel]
        return dx * dx + dy * dy < r2

    out = column(0, slice(None))
    count = images.counts[key]
    for k in range(1, images.rows.shape[1]):
        sel = np.flatnonzero(count > k)
        out[sel] |= column(k, sel)
    far = ~(t <= images.reach)
    if far.any():
        out[far] = segment_crosses_disk(
            flight.start[far], flight.direction[far], t[far],
            hole.center, hole.radius, images.offsets)
    return out


def arrival_escape_mask(table, hole: HoleSpec, batch: _bmap.CollisionBatch,
                        images=None):
    """Escape mask for one collision batch under the arrival convention.

    A flight escapes when the state it arrives at is in the hole, read
    off that same flight.  Censored entries are never marked escaped;
    the caller accounts for them separately.
    """
    inside, _ = in_hole_given_flight(table, hole, batch.scatterer_id, batch.r,
                                     batch, images)
    return inside & ~batch.censored


def in_hole_given_flight(table, hole: HoleSpec, sid, r, flight, images=None):
    """Phase-space membership of states given the flights that produced them.

    flight is a CollisionBatch holding, per state, the free flight that
    ended there, run either way: the forward batch that arrived at the
    states, or their collide_inverse_batch.  Type I reads only sid and
    r, so flight may be None there.  Returns (inside, undecided): a
    Type II state is in the hole exactly when its flight crossed the
    disk, and undecided when that flight was censored.  images are the
    hole's escape_offsets, computed here when None.
    """
    if hole.kind == "I":
        return arc_contains(hole, table, sid, r), np.zeros(np.shape(sid), dtype=bool)
    if images is None:
        images = escape_offsets(table, hole)
    mask = flight_crosses_hole(hole, images, flight)
    return mask & ~flight.censored, flight.censored


def state_in_hole_batch(table, hole: HoleSpec, sid, r, phi, images=None):
    """Vectorized phase-space membership; returns (in_hole, censored)."""
    sid = np.asarray(sid, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    back = _bmap.collide_inverse_batch(table, sid, r, phi) if hole.kind == "II" else None
    return in_hole_given_flight(table, hole, sid, r, back, images)


def in_hole(table, hole: HoleSpec, x: _bmap.PhasePoint) -> bool:
    """Phase-space hole membership of a single state; raises on censoring."""
    _bmap.check_phase_point(table, x)
    mask, cens = state_in_hole_batch(
        table, hole, [x.scatterer_id], [x.r], [x.phi]
    )
    if cens[0]:
        raise NearTangencyError("membership undecidable: backward flight censored")
    return bool(mask[0])


def in_B_sigma(table, hole: HoleSpec, x: _bmap.PhasePoint) -> bool:
    """Whether the next flight from x enters the hole (pre-escape set)."""
    _bmap.check_phase_point(table, x)
    batch = _bmap.collide_batch(table, [x.scatterer_id], [x.r], [x.phi])
    if batch.censored[0]:
        raise NearTangencyError("pre-escape membership undecidable: flight censored")
    return bool(arrival_escape_mask(table, hole, batch)[0])
