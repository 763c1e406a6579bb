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
They read states in the Cartesian form of billiard_map.State: the arc
test takes cross products of boundary normals, and a Type II test reads
the flight's start and direction against the hole images in
Table.disk_rows, which the table builds once per hole and caches.
Every membership test takes just (table, hole, ...); hole None is the
empty hole, in which no state lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import billiard_map as _bmap
from .errors import (
    BadScattererIdError,
    HoleTooLargeError,
    HoleTouchesScattererError,
    InvalidArgumentError,
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
    """Boundary-arc hole; endpoints are taken mod the perimeter.

    Endpoints a whole number of turns apart, up to rounding, are
    rejected before the reduction, which would otherwise turn a full
    turn such as (0.1, 0.1 + perimeter) into an arc a few ulps long.
    b - a rounds at the scale of the larger of a, b and the perimeter,
    so that sets the tolerance.
    """
    sid = int(scatterer_id)
    if not 0 <= sid < len(table):
        raise BadScattererIdError(f"no scatterer with id {scatterer_id}")
    perim = table.perimeters[sid]
    a, b = float(a), float(b)
    if abs(math.remainder(b - a, perim)) <= 4.0 * math.ulp(max(abs(a), abs(b), perim)):
        raise InvalidArgumentError(
            f"arc endpoints {a} and {b} agree mod the perimeter {perim}")
    a, b = float(a % perim), float(b % perim)
    hole = HoleSpec(kind="I", scatterer_id=sid, arc=(a, b))
    if hole.arc_length(table) >= perim:
        raise HoleTooLargeError("arc covers the whole scatterer")
    return hole


def type_ii_hole(table, center, radius: float) -> HoleSpec:
    """Domain-disk hole; it must avoid all scatterers."""
    hole = HoleSpec(
        kind="II", center=(float(center[0]), float(center[1])), radius=float(radius)
    )
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
        return type_i_hole(table, sid, c - half, c + half)
    return type_ii_hole(table, (float(q0[0]) + offset, float(q0[1])), half)


def arc_contains_normal(hole: HoleSpec, table, sid, normal):
    """Open-arc membership of boundary points given by their unit
    normals (N,2) on scatterers sid.

    With na and nb the normals at the arc's endpoints, a normal lies on
    the open counterclockwise arc from na to nb when na x n > 0 and
    n x nb > 0, for an arc of at most half the perimeter; a longer arc
    holds every normal off the closed complementary arc, so either
    cross product being positive will do.  This agrees with the test on
    arc lengths, a < r < b (a < r or r < b for a wrapped arc), except
    within rounding of an endpoint.
    """
    rho = float(table.radii[hole.scatterer_id])
    ax, ay = math.cos(hole.arc[0] / rho), math.sin(hole.arc[0] / rho)
    bx, by = math.cos(hole.arc[1] / rho), math.sin(hole.arc[1] / rho)
    nx, ny = normal[:, 0], normal[:, 1]
    after_a = ax * ny - ay * nx > 0.0
    before_b = nx * by - ny * bx > 0.0
    if hole.arc_length(table) > math.pi * rho:
        inside = after_a | before_b
    else:
        inside = after_a & before_b
    return inside & (np.asarray(sid) == hole.scatterer_id)


def hole_mass(table, hole: HoleSpec | None) -> float:
    """Stationary measure nu(H) of a hole: |arc|/|dQ| for Type I and,
    by Cauchy-Crofton, 2*pi*radius/|dQ| for Type II; 0 for no hole."""
    if hole is None:
        return 0.0
    if hole.kind == "I":
        return hole.arc_length(table) / table.total_perimeter
    return 2.0 * math.pi * hole.radius / table.total_perimeter


def flight_crosses_hole(table, hole: HoleSpec, flight):
    """Whether each flight passes strictly inside an image of the hole.

    flight is a CollisionBatch.  The test is an OR over images of a
    strict < on the squared distance from the image center to the
    segment, so grazing the closed disk does not count.  collide_cartesian
    ends every uncensored flight within l_max, and such a flight can
    only cross images in the row of its cell, flight.row, of
    table.disk_rows, so testing the row gives the result over every
    image.  Column k is tested on the flights whose row is longer than
    k.  A censored flight may have no hit (length inf); its entry means
    nothing, and callers mask it out.
    """
    rows, counts = table.disk_rows(hole.center, hole.radius)
    key = flight.row
    sx, sy = flight.start[:, 0], flight.start[:, 1]
    vx, vy = flight.direction[:, 0], flight.direction[:, 1]
    t = flight.flight_length
    r2 = hole.radius * hole.radius

    def column(k, sel):
        wx = rows.x[k].take(key[sel]) - sx[sel]
        wy = rows.y[k].take(key[sel]) - sy[sel]
        tp = np.clip(wx * vx[sel] + wy * vy[sel], 0.0, t[sel])
        dx = wx - tp * vx[sel]
        dy = wy - tp * vy[sel]
        return dx * dx + dy * dy < r2

    out = np.zeros(len(key), dtype=bool)
    count = counts.take(key)
    for k in range(len(rows.idx)):
        sel = np.flatnonzero(count > k)
        out[sel] |= column(k, sel)
    return out


def arrival_escape_mask(table, hole: HoleSpec | None, batch: _bmap.CollisionBatch):
    """Escape mask for one collision batch under the arrival convention.

    A flight escapes when the state it arrives at is in the hole, read
    off that same flight; with no hole nothing escapes.  Censored
    entries are never marked escaped; the caller accounts for them
    separately.
    """
    inside, _ = in_hole_given_flight(table, hole, batch.scatterer_id, batch.normal, batch)
    return inside & ~batch.censored


def in_hole_given_flight(table, hole: HoleSpec | None, sid, normal, flight):
    """Phase-space membership of states given the flights that produced them.

    flight is a CollisionBatch holding, per state, the free flight that
    ended there, run either way: the forward batch that arrived at the
    states, or their inverse collision.  Type I reads only sid and the
    boundary normals, and no hole (None) reads nothing, so flight may be
    None there.  Returns (inside, undecided): a Type II state is in the
    hole exactly when its flight crossed the disk, and undecided when
    that flight was censored.
    """
    if hole is None or hole.kind == "I":
        inside = (np.zeros(np.shape(sid), dtype=bool) if hole is None
                  else arc_contains_normal(hole, table, sid, normal))
        return inside, np.zeros(np.shape(sid), dtype=bool)
    mask = flight_crosses_hole(table, hole, flight)
    return mask & ~flight.censored, flight.censored


def state_in_hole(table, hole: HoleSpec | None, state: _bmap.State):
    """Phase-space membership of Cartesian states; returns (in_hole,
    censored).  A Type II state is tested on its backward flight; with
    no hole both masks are all False."""
    back = (_bmap.collide_inverse_cartesian(table, *state)
            if hole is not None and hole.kind == "II" else None)
    return in_hole_given_flight(table, hole, state.sid, state.normal, back)
