"""The collision map of the toroidal dispersing billiard.

Phase space is the union of boundary cylinders: a state is
(scatterer_id, r, phi) with r the arc-length coordinate and phi in
[-pi/2, pi/2] the angle from the domain-inward normal, positive toward
the counterclockwise tangent.  The flow moves along straight lines on
the torus at unit speed and reflects specularly; the collision map
sends a departure state to the next arrival state.

The map itself works on the Cartesian form of a state, a State: the
scatterer id, the unit normal n at the boundary point (pointing away
from the disk center, into the domain) and the unit velocity v leaving
it, with cos(phi) = v.n.  collide_cartesian launches from c + rho*n,
finds the first hit, takes the arrival normal d = (q1 - c1)/|q1 - c1|
and reflects, v' = v - 2(v.d)d; time reversal is v -> 2(v.n)n - v.
That is +, -, *, / and sqrt only, which IEEE 754 rounds the same way on
every host, so an ensemble kept in this form follows the same
trajectories whatever SIMD code numpy dispatches to.  (r, phi) are
computed only at the edges: collide_batch, collide and
collide_inverse_batch are thin (r, phi) wrappers around the same
kernel, and phase_of converts states for output.

Near-tangential data is censored rather than resolved: departures or
arrivals with v.n below _COS_GUARD = sin(TANGENCY_GUARD), that is
within TANGENCY_GUARD radians of +-pi/2, and flights grazing some
scatterer within GRAZE_TOLERANCE of its radius, raise NearTangencyError
in the scalar interface and are flagged in the batch interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry as _geo
from .errors import InvalidArgumentError, NearTangencyError, NoCollisionError

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
    """Straight free flight between collisions: the unfolded segment
    in the plane."""

    start: tuple[float, float]
    direction: tuple[float, float]
    length: float


class State(NamedTuple):
    """Boundary states in Cartesian form, one row per particle."""

    sid: np.ndarray       # (N,) scatterer id
    normal: np.ndarray    # (N,2) unit normal at the boundary point
    velocity: np.ndarray  # (N,2) unit velocity leaving it

    def take(self, idx) -> "State":
        """The states at integer indices idx."""
        return State(self.sid.take(idx), self.normal.take(idx, axis=0),
                     self.velocity.take(idx, axis=0))


class CollisionBatch(NamedTuple):
    scatterer_id: np.ndarray
    normal: np.ndarray      # (N,2) unit normal at the arrival point
    velocity: np.ndarray    # (N,2) unit velocity after the reflection
    flight_length: np.ndarray
    start: np.ndarray       # (N,2) unfolded launch points
    direction: np.ndarray   # (N,2) unit directions of the flights
    censored: np.ndarray    # near-tangency or grazing, not resolved
    row: np.ndarray         # cell of each flight, geometry.row_keys of
                            # its departure
    r: np.ndarray | None = None    # arrival (r, phi), filled in by the
    phi: np.ndarray | None = None  # (r, phi) wrappers only

    def arrivals(self) -> State:
        return State(self.scatterer_id, self.normal, self.velocity)


def check_phase_point(table, x: PhasePoint) -> None:
    if not 0 <= int(x.scatterer_id) < len(table):
        raise InvalidArgumentError(f"bad scatterer id {x.scatterer_id}")
    perim = table.perimeters[int(x.scatterer_id)]
    if not (0.0 <= x.r < perim):
        raise InvalidArgumentError(f"r={x.r} outside [0, {perim})")
    if not (abs(x.phi) <= math.pi / 2):
        raise InvalidArgumentError(f"phi={x.phi} outside [-pi/2, pi/2]")


def state_from_phase(table, sid, r, phi) -> State:
    """Cartesian form of (sid, r, phi) states (geometry.boundary_frame)."""
    sid = np.asarray(sid, dtype=np.int64)
    phi = np.asarray(phi, dtype=float)
    return State(sid, *_geo.boundary_frame(table, sid, r, np.cos(phi), np.sin(phi)))


def arc_coordinate(table, sid, normal):
    """Arc length r in [0, perimeter) of the boundary points with unit
    normals (N,2) on scatterers sid."""
    psi = np.arctan2(normal[:, 1], normal[:, 0])
    # np.mod(psi, 2*pi) bit for bit, at a third of its cost
    psi = np.where(psi < 0.0, psi + 2.0 * math.pi, psi) + 0.0
    r = table.radii[sid] * psi
    # an angle a hair below 0 rounds up to a full turn, and r onto the
    # perimeter, which is r = 0
    r[r >= table.perimeters[sid]] = 0.0
    return r


def phase_of(table, state: State):
    """(sid, r, phi) of Cartesian states, as new arrays; a velocity
    pointing into the disk reads phi = +-pi/2."""
    nx, ny = state.normal[:, 0], state.normal[:, 1]
    vx, vy = state.velocity[:, 0], state.velocity[:, 1]
    phi = np.arctan2(vy * nx - vx * ny, np.maximum(vx * nx + vy * ny, 0.0))
    return state.sid.copy(), arc_coordinate(table, state.sid, state.normal), phi


def reverse(normal, velocity):
    """Time reversal of velocities at boundary normals: 2(v.n)n - v,
    the state (r, -phi)."""
    w = 2.0 * (velocity[:, 0] * normal[:, 0] + velocity[:, 1] * normal[:, 1])
    return np.stack([w * normal[:, 0] - velocity[:, 0],
                     w * normal[:, 1] - velocity[:, 1]], axis=1)


def collide_cartesian(table, sid, normal, velocity) -> CollisionBatch:
    """Vectorized collision map on Cartesian states.

    Every flight ends at its first hit within the certified l_max.  A
    flight with none raises NoCollisionError unless it is censored at
    departure or grazes; such a censored entry keeps its departure
    state as a placeholder, with flight length inf.  Other censored
    entries hold an unusable arrival.
    """
    sid = np.asarray(sid, dtype=np.int64)
    nx, ny = normal[:, 0], normal[:, 1]
    vx, vy = velocity[:, 0], velocity[:, 1]
    p0 = _geo.launch_points(table, sid, normal)
    cens = vx * nx + vy * ny < _COS_GUARD
    row = _geo.row_keys(sid, normal, velocity)
    t, hit, off, grazed = _geo.first_hit_batch(table, p0, velocity, row)
    nohit = hit < 0
    if nohit.any():
        bad = nohit & ~(cens | grazed)
        if np.any(bad):
            raise NoCollisionError(
                f"{int(bad.sum())} flights found no scatterer within the certified "
                "reach; horizon certificate violated"
            )
        hit = np.where(nohit, sid, hit)
        t = np.where(nohit, 0.0, t)
    # the arrival point relative to the center of the image it hits
    c1 = table.centers.take(hit, axis=0)
    c1 += off
    dx = p0[:, 0] + t * vx - c1[:, 0]
    dy = p0[:, 1] + t * vy - c1[:, 1]
    nrm = np.sqrt(dx * dx + dy * dy)
    dx /= nrm
    dy /= nrm
    w = vx * dx + vy * dy
    cens |= grazed | (-w < _COS_GUARD)
    w += w
    d = np.stack([dx, dy], axis=1)
    v1 = np.stack([vx - w * dx, vy - w * dy], axis=1)
    if nohit.any():
        t[nohit] = np.inf
        d[nohit] = normal[nohit]
        v1[nohit] = velocity[nohit]
    return CollisionBatch(hit, d, v1, t, p0, velocity, cens, row)


def collide_batch(table, sid, r, phi) -> CollisionBatch:
    """collide_cartesian of (sid, r, phi) states, with the arrival (r, phi).

    The arrival angle is read off the incoming direction and the
    arrival normal, cos = -v.d and sin = -v x d; a reflected velocity
    v' gives the same angle up to rounding.  Censored entries with no
    hit keep their departure (r, phi).
    """
    state = state_from_phase(table, sid, r, phi)
    out = collide_cartesian(table, *state)
    r1 = arc_coordinate(table, out.scatterer_id, out.normal)
    vx, vy = out.direction[:, 0], out.direction[:, 1]
    dx, dy = out.normal[:, 0], out.normal[:, 1]
    cos1 = -(vx * dx + vy * dy)
    sin1 = -vx * dy + vy * dx
    phi1 = np.arctan2(sin1, np.maximum(cos1, 0.0))
    nohit = ~np.isfinite(out.flight_length)
    if nohit.any():
        r1[nohit] = np.asarray(r, dtype=float)[nohit]
        phi1[nohit] = np.asarray(phi, dtype=float)[nohit]
    return out._replace(r=r1, phi=phi1)


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
    seg = FlightSegment(p0, v, t)
    y = PhasePoint(int(out.scatterer_id[0]), float(out.r[0]), float(out.phi[0]))
    return y, seg


def collide_inverse_cartesian(table, sid, normal, velocity) -> CollisionBatch:
    """Vectorized inverse map on Cartesian states via time reversal.

    The inverse collision map is I o f o I with I the reversal
    v -> 2(v.n)n - v; the returned flight runs backward from the input
    state to its preimage, so it departs from the input state's own
    scatterer.
    """
    out = collide_cartesian(table, sid, normal, reverse(normal, velocity))
    return out._replace(velocity=reverse(out.normal, out.velocity))


def collide_inverse_batch(table, sid, r, phi) -> CollisionBatch:
    """collide_inverse_cartesian of (sid, r, phi) states: with
    I(r, phi) = (r, -phi), collide_batch of I(x), read back through I."""
    out = collide_batch(table, sid, np.asarray(r, dtype=float),
                        -np.asarray(phi, dtype=float))
    return out._replace(velocity=reverse(out.normal, out.velocity), phi=-out.phi)


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
