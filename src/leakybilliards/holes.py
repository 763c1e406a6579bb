"""Hole specifications and membership predicates.

Two kinds of leak:

* Type I removes an open boundary arc on one scatterer together with
  its full angle fiber; a trajectory escapes when a collision lands in
  the arc.
* Type II is an open disk in the domain, disjoint from every scatterer
  image; a trajectory escapes when a free flight crosses the disk.
  Membership is attributed to the arrival state of that flight, so the
  hole in phase space is the forward image of the crossing set.

A state of either kind is in the hole when its score, a squared
distance, is below the hole's bound, a squared size: the squared chord
from the arc's centre normal, or the squared distance from the flight
to the disk's images in Table.disk_rows, which the table caches.
Predicates are pure geometry on billiard_map.State's Cartesian form;
near-tangential inputs propagate the censoring of the collision
search.  Every membership test takes just (table, hole, ...); hole
None is the empty hole, in which no state lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    Type I uses scatterer_id, arc=(a, b): the open arc running
    counterclockwise from a to b (mod perimeter), so a > b wraps through
    the seam at r = 0, and mid, the arc length at the arc's centre,
    from whose normal the score is measured.  Type II uses center and
    radius.
    """

    kind: str
    scatterer_id: int | None = None
    arc: tuple[float, float] | None = None
    center: tuple[float, float] | None = None
    radius: float | None = None
    mid: float | None = None

    def __post_init__(self):
        if self.kind == "I":
            if self.scatterer_id is None or self.arc is None or self.mid is None:
                raise InvalidArgumentError("Type I hole needs scatterer_id, arc and mid")
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


def check_scatterer(n_scatterers: int, scatterer_id) -> int:
    """scatterer_id as an int, if a table of n_scatterers has it."""
    sid = int(scatterer_id)
    if not 0 <= sid < n_scatterers:
        raise BadScattererIdError(f"no scatterer with id {scatterer_id}")
    return sid


def check_family(n_scatterers: int, q0, h: float, offset: float, kind: str) -> None:
    """hole_family's rules that need no more of the table than its
    scatterer count: h > 0, |offset| < h and, for kind "I", an anchor
    on an existing scatterer."""
    if not h > 0:
        raise InvalidArgumentError("h must be positive")
    if abs(offset) >= h:
        raise HoleTooLargeError(f"|offset|={abs(offset)} leaves no room inside h={h}")
    if kind == "I":
        check_scatterer(n_scatterers, q0[0])


def type_i_hole(table, scatterer_id: int, a: float, b: float) -> HoleSpec:
    """Boundary-arc hole; endpoints are taken mod the perimeter.

    Endpoints a whole number of turns apart, up to rounding, are
    rejected before the reduction, which would otherwise turn a full
    turn such as (0.1, 0.1 + perimeter) into an arc a few ulps long.
    b - a rounds at the scale of the larger of a, b and the perimeter,
    so that sets the tolerance.  The arc's centre is a + length/2.
    """
    sid = check_scatterer(len(table), scatterer_id)
    perim = table.perimeters[sid]
    a, b = float(a), float(b)
    if abs(math.remainder(b - a, perim)) <= 4.0 * math.ulp(max(abs(a), abs(b), perim)):
        raise InvalidArgumentError(
            f"arc endpoints {a} and {b} agree mod the perimeter {perim}")
    a, b = float(a % perim), float(b % perim)
    length = (b - a) % perim
    if length >= perim:
        raise HoleTooLargeError("arc covers the whole scatterer")
    return HoleSpec(kind="I", scatterer_id=sid, arc=(a, b), mid=a + length / 2)


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
    Type I members keep the centre r+offset, so they score alike.
    """
    check_family(len(table), q0, h, offset, kind)
    half = h - abs(offset)
    if kind not in ("I", "II"):
        raise InvalidArgumentError(f"unknown hole kind {kind!r}")
    if kind == "I":
        sid = int(q0[0])
        perim = table.perimeters[sid]
        r0 = float(q0[1])
        if not 0.0 <= r0 < perim:
            raise ROutOfRangeError(f"anchor r={r0} outside [0, {perim})")
        if 2.0 * half >= perim:
            raise HoleTooLargeError(
                f"arc length {2 * half:.6g} >= perimeter {perim:.6g}"
            )
        c = r0 + offset
        return replace(type_i_hole(table, sid, c - half, c + half), mid=c)
    return type_ii_hole(table, (float(q0[0]) + offset, float(q0[1])), half)


def hole_mass(table, hole: HoleSpec | None) -> float:
    """Stationary measure nu(H) of a hole: |arc|/|dQ| for Type I and,
    by Cauchy-Crofton, 2*pi*radius/|dQ| for Type II; 0 for no hole."""
    if hole is None:
        return 0.0
    if hole.kind == "I":
        return hole.arc_length(table) / table.total_perimeter
    return 2.0 * math.pi * hole.radius / table.total_perimeter


def score(table, hole: HoleSpec, sid, normal, flight):
    """Squared distance of each state from the hole; a state is in the
    hole when its score is < bound(table, hole).

    Type I reads sid and the unit normals (N,2): the squared chord
    |n - u0|^2 to the normal u0 at the arc's centre on the hole's
    scatterer, +inf elsewhere.  Type II reads flight, a CollisionBatch
    or a billiard_map.Flight, only its start, direction, flight_length
    and row: the least squared distance from the segment to an image of
    the disk centre in the row of its cell, flight.row, in
    table.disk_rows (+inf
    for an empty row); an uncensored flight ends within l_max and comes
    within the radius of no image outside that row.  A censored flight
    may have no hit (length inf); its entry means nothing.
    """
    if hole.kind == "I":
        rho = float(table.radii[hole.scatterer_id])
        off = np.where(np.arange(len(table)) == hole.scatterer_id, 0.0, np.inf)
        dx = normal[:, 0] - math.cos(hole.mid / rho)
        dy = normal[:, 1] - math.sin(hole.mid / rho)
        return dx * dx + dy * dy + off.take(sid)
    rows, counts = table.disk_rows(hole.center, hole.radius)
    key = flight.row
    sx, sy = flight.start[:, 0], flight.start[:, 1]
    vx, vy = flight.direction[:, 0], flight.direction[:, 1]
    t = flight.flight_length

    def column(k, sel):
        wx = rows.x[k].take(key[sel]) - sx[sel]
        wy = rows.y[k].take(key[sel]) - sy[sel]
        tp = np.clip(wx * vx[sel] + wy * vy[sel], 0.0, t[sel])
        dx = wx - tp * vx[sel]
        dy = wy - tp * vy[sel]
        return dx * dx + dy * dy

    out = np.full(len(key), np.inf)
    count = counts.take(key)
    for k in range(len(rows.idx)):
        sel = np.flatnonzero(count > k)
        d2 = column(k, sel)
        if k:
            np.minimum(d2, out[sel], out=d2)
        out[sel] = d2
    return out


def bound(table, hole: HoleSpec) -> float:
    """Squared size of the hole: for Type I the squared chord
    (2 sin(half/(2 rho)))^2 from the centre normal to an endpoint
    normal, half being half the arc length; for Type II the squared
    radius."""
    if hole.kind == "II":
        return hole.radius * hole.radius
    chord = 2.0 * math.sin(hole.arc_length(table) / (4.0 * table.radii[hole.scatterer_id]))
    return chord * chord


def arrival_escape_mask(table, hole: HoleSpec | None, batch: _bmap.CollisionBatch):
    """Escape mask for one collision batch under the arrival convention.

    A flight escapes when the state it arrives at is in the hole, read
    off that same flight; with no hole nothing escapes.  Censored
    entries are never marked escaped; the caller accounts for them
    separately.
    """
    inside, _ = in_hole_given_flight(table, hole, batch.scatterer_id, batch.normal, batch)
    return inside & ~batch.censored


def reads_flight(hole: HoleSpec | None) -> bool:
    """Whether membership in hole is read off the flight that produced
    a state (Type II) rather than off the state itself."""
    return hole is not None and hole.kind == "II"


def in_hole_given_flight(table, hole: HoleSpec | None, sid, normal, flight):
    """Phase-space membership of states given the flights that produced them.

    flight is a CollisionBatch or billiard_map.Flight holding, per
    state, the free flight that ended there, run either way: the
    forward flights that arrive at the states, or their inverse
    collision.  Type I reads only sid and the
    boundary normals, and no hole (None) reads nothing, so flight may be
    None there.  Returns (inside, undecided): a state is inside when
    score < bound; a Type II state, whose score is its flight's, is
    undecided when that flight was censored.
    """
    if hole is None:
        return np.zeros(np.shape(sid), dtype=bool), np.zeros(np.shape(sid), dtype=bool)
    inside = score(table, hole, sid, normal, flight) < bound(table, hole)
    if hole.kind == "I":
        return inside, np.zeros(np.shape(sid), dtype=bool)
    return inside & ~flight.censored, flight.censored


def state_in_hole(table, hole: HoleSpec | None, state: _bmap.State):
    """Phase-space membership of Cartesian states; returns (in_hole,
    censored).  A Type II state is tested on its backward flight; with
    no hole both masks are all False."""
    back = (_bmap.collide_inverse_cartesian(table, *state)
            if hole is not None and hole.kind == "II" else None)
    return in_hole_given_flight(table, hole, state.sid, state.normal, back)
