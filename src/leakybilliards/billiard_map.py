"""The collision map of the toroidal dispersing billiard.

Phase space is the union of boundary cylinders: a state is
(scatterer_id, r, phi) with r the arc-length coordinate and phi in
[-pi/2, pi/2] the angle from the domain-inward normal, positive toward
the counterclockwise tangent.  The flow moves along straight lines on
the torus at unit speed and reflects specularly; the collision map
sends a departure state to the next arrival state.

Near-tangential data is censored rather than resolved: departures or
arrivals within TANGENCY_GUARD radians of +-pi/2, and flights grazing
some scatterer within GRAZE_TOLERANCE of its radius, raise
NearTangencyError in the scalar interface and are flagged in the batch
interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry as _geo
from .errors import (
    DifferentScatterersError,
    InvalidArgumentError,
    NearTangencyError,
    NoCollisionError,
)

TANGENCY_GUARD = 1e-9  # radians around +-pi/2

# cos(pi/2 - TANGENCY_GUARD); arrival censoring works on cosines
_COS_GUARD = math.sin(TANGENCY_GUARD)


@dataclass(frozen=True)
class PhasePoint:
    scatterer_id: int
    r: float
    phi: float


@dataclass(frozen=True)
class FlightSegment:
    """Straight free flight between collisions.

    start/direction/length describe the unfolded segment in the plane;
    polyline lists its pieces wrapped back into the unit cell as
    ((x0, y0), (x1, y1)) pairs.
    """

    start: tuple[float, float]
    direction: tuple[float, float]
    length: float
    polyline: tuple


class CollisionBatch(NamedTuple):
    scatterer_id: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    flight_length: np.ndarray
    start: np.ndarray       # (N,2) unfolded launch points
    direction: np.ndarray   # (N,2) unit directions
    censored: np.ndarray    # near-tangency or grazing, not resolved
    departure_id: np.ndarray  # scatterer each flight leaves from: the sid
                              # argument itself, not a copy


def check_phase_point(table, x: PhasePoint) -> None:
    if not 0 <= int(x.scatterer_id) < len(table):
        raise InvalidArgumentError(f"bad scatterer id {x.scatterer_id}")
    perim = table.perimeters[int(x.scatterer_id)]
    if not (0.0 <= x.r < perim):
        raise InvalidArgumentError(f"r={x.r} outside [0, {perim})")
    if not (abs(x.phi) <= math.pi / 2):
        raise InvalidArgumentError(f"phi={x.phi} outside [-pi/2, pi/2]")


def collide_batch(table, sid, r, phi) -> CollisionBatch:
    """Vectorized collision map; censored entries keep placeholder states."""
    sid = np.asarray(sid, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p0, v = _geo.rays_from_boundary(table, sid, r, phi)
    cens = np.abs(phi) > (math.pi / 2 - TANGENCY_GUARD)
    t, hit, off, grazed = _geo.first_hit_batch(table, p0, v, skip_sid=sid)
    nohit = hit < 0
    bad = nohit & ~cens
    if np.any(bad):
        raise NoCollisionError(
            f"{int(bad.sum())} flights found no scatterer within the certified "
            "reach; horizon certificate violated"
        )
    cens = cens | grazed | nohit

    safe = ~nohit
    sid1 = np.where(safe, hit, sid)
    q1 = p0 + t[:, None] * v
    chit = table.centers[np.where(safe, hit, 0)] + off
    d = q1 - chit
    nrm = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    nrm[~safe] = 1.0
    d /= nrm[:, None]
    psi1 = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
    r1 = np.where(safe, table.radii[sid1] * psi1, r)
    cos1 = -(v[:, 0] * d[:, 0] + v[:, 1] * d[:, 1])
    sin1 = -v[:, 0] * d[:, 1] + v[:, 1] * d[:, 0]
    phi1 = np.where(safe, np.arctan2(sin1, np.maximum(cos1, 0.0)), phi)
    cens |= safe & (cos1 < _COS_GUARD)
    return CollisionBatch(sid1, r1, phi1, t, p0, v, cens, sid)


def _wrap_polyline(p0, v, length):
    """Split the unfolded segment at unit gridlines and wrap each piece."""
    cuts = [0.0, float(length)]
    for axis in (0, 1):
        if abs(v[axis]) > 1e-15:
            a = p0[axis]
            lo = a if v[axis] > 0 else a + v[axis] * length
            hi = a + v[axis] * length if v[axis] > 0 else a
            k = math.ceil(lo)
            while k < hi:
                tk = (k - a) / v[axis]
                if 1e-12 < tk < length - 1e-12:
                    cuts.append(tk)
                k += 1
    cuts = sorted(set(cuts))
    pieces = []
    for ta, tb in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (ta + tb)
        ox = math.floor(p0[0] + tm * v[0])
        oy = math.floor(p0[1] + tm * v[1])
        pieces.append(
            (
                (p0[0] + ta * v[0] - ox, p0[1] + ta * v[1] - oy),
                (p0[0] + tb * v[0] - ox, p0[1] + tb * v[1] - oy),
            )
        )
    return tuple(pieces)


def collide(table, x: PhasePoint):
    """One collision; returns (arrival PhasePoint, FlightSegment)."""
    check_phase_point(table, x)
    out = collide_batch(table, [x.scatterer_id], [x.r], [x.phi])
    if out.censored[0]:
        raise NearTangencyError(
            f"collision from ({x.scatterer_id}, r={x.r:.6g}, phi={x.phi:.6g}) "
            "is tangential or grazing within guard tolerances"
        )
    p0 = (float(out.start[0, 0]), float(out.start[0, 1]))
    v = (float(out.direction[0, 0]), float(out.direction[0, 1]))
    t = float(out.flight_length[0])
    seg = FlightSegment(p0, v, t, _wrap_polyline(p0, v, t))
    y = PhasePoint(int(out.scatterer_id[0]), float(out.r[0]), float(out.phi[0]))
    return y, seg


def collide_inverse_batch(table, sid, r, phi) -> CollisionBatch:
    """Vectorized inverse map via the time-reversal conjugacy.

    With I(r, phi) = (r, -phi) the inverse collision map is I o f o I;
    the returned flight segment runs backward from the input state to
    its preimage, so it departs from the input state's own scatterer.
    """
    out = collide_batch(table, sid, np.asarray(r, dtype=float),
                        -np.asarray(phi, dtype=float))
    return out._replace(phi=-out.phi)


def collision_jacobian(table, x: PhasePoint) -> np.ndarray:
    """Derivative of the collision map at x in (r, phi) coordinates.

    Closed form from the reflection geometry: with curvatures K, K1 of
    the departure and arrival scatterers, flight length tau, and angles
    phi, phi1,

        Df = -1/cos(phi1) * [[tau*K + cos(phi),            tau          ],
                             [tau*K*K1 + K1*cos(phi)
                                        + K*cos(phi1),     tau*K1 + cos(phi1)]]

    whose determinant is cos(phi)/cos(phi1).
    """
    y, seg = collide(table, x)
    k0 = 1.0 / table.radii[int(x.scatterer_id)]
    k1 = 1.0 / table.radii[int(y.scatterer_id)]
    c0 = math.cos(x.phi)
    c1 = math.cos(y.phi)
    tau = seg.length
    return (-1.0 / c1) * np.array(
        [
            [tau * k0 + c0, tau],
            [tau * k0 * k1 + k1 * c0 + k0 * c1, tau * k1 + c1],
        ]
    )


def p_distance(table, x1: PhasePoint, x2: PhasePoint, same_curve: bool = True) -> float:
    """Path p-length integral of cos(phi) dr along the parameter segment.

    Both points must lie on the same scatterer.  With same_curve the
    r-difference is wrapped to the shorter way around the closed curve;
    otherwise the raw parameter difference is used.  The integral has
    the closed form |dr| * (sin(phi2) - sin(phi1)) / (phi2 - phi1).
    """
    if x1.scatterer_id != x2.scatterer_id:
        raise DifferentScatterersError(
            f"p_distance needs points on one scatterer, got "
            f"{x1.scatterer_id} and {x2.scatterer_id}"
        )
    perim = table.perimeters[int(x1.scatterer_id)]
    dr = x2.r - x1.r
    if same_curve:
        dr = (dr + perim / 2.0) % perim - perim / 2.0
    dphi = x2.phi - x1.phi
    if abs(dphi) < 1e-9:
        return abs(dr) * math.cos(0.5 * (x1.phi + x2.phi))
    return abs(dr * (math.sin(x2.phi) - math.sin(x1.phi)) / dphi)
