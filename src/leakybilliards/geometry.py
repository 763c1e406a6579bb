"""Scatterer tables on the unit torus and horizon certification.

The billiard domain is the unit two-torus minus a finite union of
disjoint closed disks (scatterers).  A boundary point on scatterer i is
addressed by arc length r in [0, 2*pi*rho_i), measured counterclockwise
from the positive x axis of the disk, so its position is
center + rho*(cos(r/rho), sin(r/rho)) and the domain-inward normal is
the radial unit vector pointing away from the center.

Horizon certification is exact: a free corridor (an infinite strip of
positive width avoiding every scatterer image) must have a rational
direction, because for irrational directions the lattice of scatterer
images projects densely onto the normal line.  A direction (p, q) with
sqrt(p^2+q^2) >= 1/(2*r_max) is blocked by the widest scatterer alone,
so sweeping the finitely many rational directions below that cutoff
decides horizon finiteness.  The flight bound L_max is then proven by
branch and bound over direction intervals (finite_horizon_probe): every
ray leaving a scatterer hits an image within L_max unless it grazes one.
L_max is the reach of the first-hit search: a ray gets its first hit
within it or none, and a ray leaving its disk with none grazes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigReader,
    InfiniteHorizonError,
    InvalidArgumentError,
    OverlappingScatterersError,
)

# impact parameters within this band of a scatterer radius mark the ray
# as grazing; the collision search refuses to resolve which side of the
# tangency the trajectory passes on
GRAZE_TOLERANCE = 1e-12

# minimum admissible flight length; guards against rounding re-hits of
# the departure disk's neighbors
_T_EPS = 1e-12

# a projection gap narrower than this does not count as a corridor
_GAP_TOLERANCE = 1e-9

# the corridor sweep tests rational directions (p, q) with p, |q| up to
# this, or up to the cutoff 1/(2*r_max) past which the widest scatterer
# blocks every direction, whichever is larger
_Q_SWEEP = 8

# direction sectors per departure scatterer in the first-hit candidate
# table; each sector's angle range is padded by _SECTOR_PAD radians and
# each image disk inflated by _SECTOR_MARGIN, which covers the graze
# tolerance and every rounding error in the ray data
N_SECTORS = 32
_SECTOR_PAD = 1e-9
_SECTOR_MARGIN = 1e-6

# the sector scan's loose graze pre-screen, on disc/4 = rho^2 - imp^2
# for impact parameter imp: |imp - rho| < 1e-9 gives |disc/4| < 1e-9
# for any rho < 1/2, so this flags at least what that test flags
_GRAZE_SCREEN = 2e-9

# flagged rays per block of the exact graze recheck
_GRAZE_BLOCK = 4096

# the flight-bound certificate: initial direction intervals per
# scatterer, bisection depth before the bound is raised, the bound's
# margin over the longest flight at the interval centers, bisection
# steps for the cover interval ends, and their rounding margin
_N_DIRECTIONS = 64
_MAX_DEPTH = 10
_BOUND_MARGIN = 0.002
_BISECT_STEPS = 40
_COVER_EPS = 1e-9


@dataclass(frozen=True)
class Scatterer:
    """Closed disk obstacle with center in the unit cell."""

    center: tuple[float, float]
    radius: float

    @property
    def perimeter(self) -> float:
        return 2.0 * math.pi * self.radius


@dataclass(frozen=True)
class HorizonCertificate:
    """Outcome of a successful finite-horizon probe.

    l_max is a proven bound on every free flight in the table that does
    not graze a scatterer; q_checked is the direction sweep range
    actually used, always large enough to make the corridor test a
    complete decision procedure; intervals_tested counts the direction
    intervals the proof of l_max tested.
    """

    l_max: float
    q_checked: int
    intervals_tested: int


class Table:
    """Validated scatterer configuration with precomputed kernel arrays.

    Construction wraps centers into [0,1)^2 and checks pairwise
    disjointness across periodic images.  The horizon certificate is
    attached by validate_table; kernels that need a flight bound refuse
    to run without it unless an explicit reach is supplied.
    """

    def __init__(self, scatterers):
        scatterers = tuple(scatterers)
        if not scatterers:
            raise InvalidArgumentError("table needs at least one scatterer")
        wrapped = []
        for s in scatterers:
            if not (0.0 < s.radius < 0.5):
                raise InvalidArgumentError(
                    f"scatterer radius must lie in (0, 0.5), got {s.radius}"
                )
            wrapped.append(
                Scatterer((s.center[0] % 1.0, s.center[1] % 1.0), float(s.radius))
            )
        self.scatterers = tuple(wrapped)
        self.centers = np.array([s.center for s in self.scatterers], dtype=float)
        self.radii = np.array([s.radius for s in self.scatterers], dtype=float)
        self.perimeters = 2.0 * np.pi * self.radii
        self.total_perimeter = float(self.perimeters.sum())
        self.cum_perimeter = np.concatenate([[0.0], np.cumsum(self.perimeters)])
        self.certificate: HorizonCertificate | None = None
        self._candidates = {}
        self._sectors = {}
        self._disks = {}
        self._check_disjoint()

    def __len__(self):
        return len(self.scatterers)

    def _check_disjoint(self):
        n = len(self.scatterers)
        offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        for i in range(n):
            for j in range(i + 1, n):
                need = self.radii[i] + self.radii[j]
                for dx, dy in offsets:
                    d = math.hypot(
                        self.centers[i, 0] - self.centers[j, 0] + dx,
                        self.centers[i, 1] - self.centers[j, 1] + dy,
                    )
                    if d <= need:
                        raise OverlappingScatterersError(
                            f"scatterers {i} and {j} touch at image offset ({dx},{dy}): "
                            f"distance {d:.6g} <= {need:.6g}"
                        )
        # radius < 1/2 already makes every disk disjoint from its own images

    def image_candidates(self, reach: float):
        """Scatterer images reachable by a ray of length <= reach.

        Rays launched inside the package start on scatterer boundaries
        with centers in the unit cell, hence within d0 = sqrt(2)/2 +
        r_max of the cell midpoint.  Returns (offsets (M,2), ids (M,),
        lower_bounds (M,)) sorted by the distance lower bound, which is
        what lets the first-hit scan settle most rays after the nearest
        few images.
        """
        key = round(float(reach), 6)
        if key in self._candidates:
            return self._candidates[key]
        d0 = math.sqrt(0.5) + float(self.radii.max())
        kx, ky, ids = image_lattice(int(math.ceil(reach + d0 + 1.0)), len(self.scatterers))
        # math.hypot per image: np.hypot differs from it in the last bit
        # on some inputs, which reorders the list at large reach
        dist = np.array(list(map(math.hypot, (self.centers[ids, 0] + kx - 0.5).tolist(),
                                 (self.centers[ids, 1] + ky - 0.5).tolist())))
        lb = dist - self.radii[ids] - d0
        keep = np.flatnonzero(lb <= reach)
        bound = np.where(lb[keep] < 0.0, 0.0, lb[keep])
        order = np.argsort(bound, kind="stable")
        out = (np.stack([kx, ky], axis=1)[keep[order]], ids[keep[order]], bound[order])
        self._candidates[key] = out
        return out

    def sector_candidates(self, reach: float):
        """Per (departure scatterer, direction sector) first-hit candidates.

        sector_rows over every scatterer image, with each departure
        disk's own (0,0) image left out: a ray leaving a disk's boundary
        meets nothing outside its row within reach.  Cached per reach
        rounded to six decimals.

        Returns (ids (M,), offsets (M,2), SectorRows over the M images).
        """
        key = round(float(reach), 6)
        if key in self._sectors:
            return self._sectors[key]
        reach = sector_reach(reach)
        n = len(self.scatterers)
        kmax = int(math.ceil(reach + 2.0 * float(self.radii.max()) + 1.0 + _SECTOR_MARGIN))
        kx, ky, sid = image_lattice(kmax, n)
        centers = np.stack([self.centers[sid, 0] + kx, self.centers[sid, 1] + ky], axis=1)
        radii = self.radii[sid]
        own = (sid == np.arange(n)[:, None]) & (kx == 0.0) & (ky == 0.0)
        out = (sid, np.stack([kx, ky], axis=1),
               sector_rows(self, centers, radii, reach, exclude=own))
        self._sectors[key] = out
        return out

    def disk_rows(self, center, radius: float):
        """Per (departure scatterer, direction sector) images of a disk.

        The disk's integer translates that a flight of length at most
        the certificate's l_max can meet, kept in image_lattice order
        when a lower bound on their distance from every launch point,
        taken from the cell midpoint, is within sector_reach(l_max), and
        put through sector_rows at that reach.  Returns (rows, counts):
        row sid*N_SECTORS + s of the SectorRows lists nearest first the
        images a flight leaving scatterer sid in sector s can meet, and
        counts[row] is its length; entries past it are padding, other
        images.  Cached per center, radius and l_max rounded to six
        decimals, so a replaced certificate gets rows of its own.
        """
        if self.certificate is None:
            raise InvalidArgumentError("table has no horizon certificate")
        cx, cy, radius = float(center[0]), float(center[1]), float(radius)
        reach = sector_reach(self.certificate.l_max)
        key = (cx, cy, radius, reach)
        if key in self._disks:
            return self._disks[key]
        d0 = math.sqrt(0.5) + float(self.radii.max())
        kx, ky, _ = image_lattice(int(math.ceil(reach + radius + d0 + 1.0)))
        keep = np.hypot(cx + kx - 0.5, cy + ky - 0.5) - radius - d0 <= reach
        centers = np.stack([cx + kx[keep], cy + ky[keep]], axis=1)
        rows = sector_rows(self, centers, np.full(len(centers), radius), reach)
        out = (rows, np.count_nonzero(np.isfinite(rows.lb), axis=0))
        self._disks[key] = out
        return out


def image_lattice(kmax: int, n: int = 1):
    """Integer offsets (kx, ky) in [-kmax, kmax]^2, each repeated for ids
    0..n-1, kx slowest and id fastest.  Returns (kx, ky, ids) as flat
    arrays, the offsets as floats."""
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    return tuple(a.ravel() for a in np.meshgrid(ks, ks, np.arange(n), indexing="ij"))


def sector_reach(reach: float) -> float:
    """Pie-slice radius of the sector rows for a search reach: every
    reach that rounds to the same six decimals lies below it."""
    return round(float(reach), 6) + 1e-6


def sector_keys(sid, v):
    """Row of each ray in a sector table: sid*N_SECTORS + the sector of
    its direction v (N,2).  A direction that rounds across a sector edge
    still lands in a row that covers it, since rows pad their sectors by
    _SECTOR_PAD."""
    ang = np.arctan2(v[:, 1], v[:, 0])
    sector = ((ang + np.pi) * (N_SECTORS / (2.0 * np.pi))).astype(np.int64)
    return sid * N_SECTORS + np.minimum(sector, N_SECTORS - 1)


class SectorRows(NamedTuple):
    """Rows of disks, one per (departure scatterer, direction sector),
    stored column by column.

    Each field is a (K, S*N_SECTORS) array whose field[k] holds column k
    of every row as one contiguous vector, which a scan reads with
    field[k].take(key).  idx is the disk index, x and y its center and
    rho2 its squared radius.  lb, (K+1, S*N_SECTORS), is the distance
    lower bound: inf past the end of a row and in the extra last column.
    """

    idx: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rho2: np.ndarray
    lb: np.ndarray


def sector_rows(table: Table, centers, radii, reach: float, exclude=None):
    """Disks a flight can meet, per (departure scatterer, direction sector).

    Row sid*N_SECTORS + s lists every disk (centers (M,2), radii (M,)),
    inflated by _SECTOR_MARGIN, that meets the departure disk sid
    Minkowski-summed with the pie slice of radius reach over sector s,
    padded by _SECTOR_PAD: a flight of length at most reach that leaves
    that disk's boundary in that sector can meet no other disk.  exclude
    (S, M) marks disks to leave out of a departure disk's rows.  Rows
    are sorted by the lower bound |C - c_sid| - rho - rho_sid -
    _SECTOR_MARGIN on the flight to the disk, padded with lower bound
    inf, and share one width K.  Returns them as SectorRows.
    """
    n = len(table)
    edges = -np.pi + 2.0 * np.pi * np.arange(N_SECTORS + 1) / N_SECTORS
    a0 = (edges[:-1] - _SECTOR_PAD)[None, :, None]
    a1 = (edges[1:] + _SECTOR_PAD)[None, :, None]

    # axes: departure scatterer, sector, disk
    dx = (centers[:, 0] - table.centers[:, 0, None])[:, None, :]
    dy = (centers[:, 1] - table.centers[:, 1, None])[:, None, :]
    gap = (radii + table.radii[:, None])[:, None, :] + _SECTOR_MARGIN
    member = pie_slice_distance(dx, dy, a0, a1, reach) <= gap
    if exclude is not None:
        member &= ~exclude[:, None, :]
    lb = np.where(member, np.hypot(dx, dy) - gap, np.inf).reshape(n * N_SECTORS, -1)
    order = np.argsort(lb, axis=1, kind="stable")
    rows = order[:, :max(int(member.sum(axis=2).max()), 1)]
    idx = np.ascontiguousarray(rows.T)
    lb = np.concatenate([np.take_along_axis(lb, rows, axis=1).T, np.full((1, len(rows)), np.inf)])
    return SectorRows(idx, centers[idx, 0], centers[idx, 1], radii[idx] * radii[idx], lb)


def boundary_frame(table: Table, sid, r, cos_phi, sin_phi):
    """Vectorized Cartesian form of boundary states.

    phi is the angle from the inward normal, positive toward the
    counterclockwise tangent; |phi| < pi/2 points into the domain.
    Returns (n (N,2), v (N,2)): the unit normal at arc length r, pointing
    away from the disk center, and the unit direction at angle phi,
    given by its cosine and sine.
    """
    psi = np.asarray(r, dtype=float) / table.radii[sid]
    nx, ny = np.cos(psi), np.sin(psi)
    n = np.stack([nx, ny], axis=-1)
    v = np.stack([cos_phi * nx - sin_phi * ny, cos_phi * ny + sin_phi * nx], axis=-1)
    return n, v


def launch_points(table: Table, sid, n):
    """Boundary points center + rho*n of scatterers sid, (N,2)."""
    rho = table.radii.take(sid)
    p0 = table.centers.take(sid, axis=0)
    p0[:, 0] += rho * n[:, 0]
    p0[:, 1] += rho * n[:, 1]
    return p0


def pie_slice_distance(x, y, a0, a1, radius):
    """Distance from points (x, y) to a pie slice at the origin.

    The slice is {t*(cos a, sin a) : 0 <= t <= radius, a0 <= a <= a1}
    with 0 <= a1 - a0 < pi, so it is convex: a point whose polar angle
    lies in [a0, a1] is nearest to the slice along its own ray, any
    other point is nearest to one of the two edge segments.  Arguments
    broadcast against each other.
    """
    mid = 0.5 * (a0 + a1)
    cm, sm = np.cos(mid), np.sin(mid)
    off = np.arctan2(cm * y - sm * x, cm * x + sm * y)
    inside = np.abs(off) <= 0.5 * (a1 - a0)
    dist = np.where(inside, np.maximum(np.hypot(x, y) - radius, 0.0), np.inf)
    for a in (a0, a1):
        ux, uy = np.cos(a), np.sin(a)
        s = np.clip(x * ux + y * uy, 0.0, radius)
        dist = np.minimum(dist, np.hypot(x - s * ux, y - s * uy))
    return dist


def first_hit_batch(table: Table, p0, v, skip_sid, reach=None):
    """First intersection of rays with the scatterer image lattice.

    Parameters
    ----------
    p0, v : (N,2) arrays
        Ray origins and unit directions.  Ray i starts on the boundary
        of the unit-cell image of scatterer skip_sid[i].
    skip_sid : (N,) int array
        Scatterer each ray departs from; its (0,0) image is excluded so
        rounding cannot produce a zero-length hit.
    reach : float, optional
        Search horizon; defaults to the table certificate's l_max.

    Returns
    -------
    t, sid, offset, grazed
        Flight lengths (inf for no hit), scatterer ids (-1 for no hit),
        integer image offsets (N,2; 0 for no hit), and a flag for rays
        passing within GRAZE_TOLERANCE of a circle they did not hit,
        ahead of the accepted hit.  A ray without a hit is flagged if
        _sector_scan's loose pre-screen finds it near a circle of its
        row.

    Each ray gets its first hit within reach or no hit at all.  It is
    tested only against its row of Table.sector_candidates(reach),
    which holds every image a ray from its departure disk in its
    direction sector can meet within reach.  The rows are padded a
    little past reach; a hit there is dropped, so the result does not
    depend on the padding.  At the certificate's l_max, a ray leaving
    its disk has no hit only if it grazes an image; any other such ray
    (one aimed into its own disk, say) is outside the proof.
    billiard_map.collide_cartesian censors those at departure and
    raises NoCollisionError for any other flight without a hit.
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    skip_sid = np.asarray(skip_sid, dtype=np.int64).reshape(-1)
    if reach is None:
        if table.certificate is None:
            raise InvalidArgumentError("table has no horizon certificate; pass reach")
        reach = table.certificate.l_max
    t, sid, off, maybe_graze = _sector_scan(table, p0, v, skip_sid, reach)
    far = np.flatnonzero(~(t <= reach))
    t[far], sid[far], off[far] = np.inf, -1, 0.0
    return t, sid, off, _graze_recheck(table, p0, v, t, maybe_graze, reach)


def _sector_scan(table, p0, v, skip_sid, reach):
    """Column-by-column scan of each ray's sector candidate row.

    A ray retires once its best flight is no longer than the next
    column's distance lower bound.  Retired rays are masked out, and the
    rays still in the scan are compacted only once at least half of
    them have retired; hits go straight into the result arrays by ray
    index.  Returns (t, sid, offset, maybe_graze): each ray's first hit
    among its row, which may lie a little past reach, and the loose
    graze pre-screen flag that _graze_recheck settles.

    The arithmetic is the textbook quadratic's with b = 2*hb, which
    the full-scan oracle in the tests keeps: with hb = f.v,
    b*b - 4*cc = 4*(hb*hb - cc) and 0.5*(-b - sqrt(b*b - 4*cc)) =
    -hb - sqrt(hb*hb - cc) hold in floating point too, since they only
    scale by powers of two, so every flight length keeps its bits.
    """
    img_sid, img_off, cols = table.sector_candidates(reach)
    n = p0.shape[0]
    best_t = np.full(n, np.inf)
    best_img = np.full(n, -1, dtype=np.int64)
    maybe_graze = np.zeros(n, dtype=bool)

    key = sector_keys(skip_sid, v)
    idx = np.arange(n)
    px, py, vx, vy = p0[:, 0], p0[:, 1], v[:, 0], v[:, 1]
    for k in range(len(cols.lb)):
        bt = best_t.take(idx)
        live = bt > cols.lb[k].take(key)
        n_live = np.count_nonzero(live)
        if not n_live:
            break
        if 2 * n_live <= len(idx):
            keep = np.flatnonzero(live)
            idx, key, px, py, vx, vy, bt = (
                a.take(keep) for a in (idx, key, px, py, vx, vy, bt))
            live = None
        fx = px - cols.x[k].take(key)
        fy = py - cols.y[k].take(key)
        hb = fx * vx + fy * vy
        cc = fx * fx + fy * fy - cols.rho2[k].take(key)
        disc4 = hb * hb - cc
        tsm = -hb - np.sqrt(np.maximum(disc4, 0.0))
        ok = (disc4 > 0.0) & (tsm > _T_EPS) & (tsm < bt)
        # loose pre-screen; the exact grazing test reruns flagged rays
        flag = (np.abs(disc4) < _GRAZE_SCREEN) & (hb < -_T_EPS)
        if live is not None:
            ok &= live
            flag &= live
        sel = np.flatnonzero(ok)
        rays = idx.take(sel)
        best_t[rays] = tsm.take(sel)
        best_img[rays] = cols.idx[k].take(key.take(sel))
        maybe_graze[idx[flag]] = True

    found = best_img >= 0
    best_sid = np.where(found, img_sid[best_img], -1)
    best_off = np.where(found[:, None], img_off[best_img], 0.0)
    return best_t, best_sid, best_off, maybe_graze


def _graze_recheck(table, p0, v, best_t, maybe_graze, reach):
    """Exact grazing test of the pre-screened rays over every image.

    A flagged ray grazes if it has no hit, or if it passes within
    GRAZE_TOLERANCE of an image's circle at a closest approach strictly
    between _T_EPS and its hit (the hit's own chord midpoint lies beyond
    it).  Flagged rays are tested against all images at once, in blocks
    of _GRAZE_BLOCK rays.
    """
    offs, sids, _ = table.image_candidates(reach)
    cx = table.centers[sids, 0] + offs[:, 0]
    cy = table.centers[sids, 1] + offs[:, 1]
    rho = table.radii[sids]
    grazed = np.zeros(len(best_t), dtype=bool)
    flagged = np.flatnonzero(maybe_graze)
    for lo in range(0, flagged.size, _GRAZE_BLOCK):
        idx = flagged[lo:lo + _GRAZE_BLOCK]
        tb = best_t[idx, None]
        fx = p0[idx, 0, None] - cx
        fy = p0[idx, 1, None] - cy
        t_close = -0.5 * (2.0 * (fx * v[idx, 0, None] + fy * v[idx, 1, None]))
        imp2 = fx * fx + fy * fy - t_close * t_close
        near = np.abs(np.sqrt(np.maximum(imp2, 0.0)) - rho) < GRAZE_TOLERANCE
        ahead = (_T_EPS < t_close) & (t_close < tb)
        grazed[idx] = ~np.isfinite(tb[:, 0]) | np.any(near & ahead, axis=1)
    return grazed


def _corridor_witness(centers, radii, q_eff):
    """Direction (p, q) of a free corridor, p and |q| up to q_eff, or
    None if all are blocked."""
    cutoff = 1.0 / (2.0 * float(radii.max()))
    directions = [(1, 0), (0, 1)]
    for p in range(1, q_eff + 1):
        for q in range(1, q_eff + 1):
            directions.append((p, q))
            directions.append((p, -q))
    for p, q in directions:
        if math.gcd(p, abs(q)) != 1:
            continue
        norm = math.hypot(p, q)
        if norm >= cutoff:
            continue  # the widest scatterer blocks these outright
        spacing = 1.0 / norm
        nx, ny = -q / norm, p / norm
        proj = centers[:, 0] * nx + centers[:, 1] * ny
        if np.any(2.0 * radii >= spacing - _GAP_TOLERANCE):
            continue
        starts = np.mod(proj - radii, spacing)
        lengths = 2.0 * radii
        order = np.argsort(starts)
        starts, lengths = starts[order], lengths[order]
        cur_end = starts[0] + lengths[0]
        gap = False
        for s, ln in zip(starts[1:], lengths[1:]):
            if s > cur_end + _GAP_TOLERANCE:
                gap = True
                break
            cur_end = max(cur_end, s + ln)
        if not gap and starts[0] + spacing > cur_end + _GAP_TOLERANCE:
            gap = True
        if gap:
            return (p, q)
    return None


def _lines_ahead(table, sid, theta, radius):
    """Departure disk and the images ahead of it, per direction row.

    Row k looks along u = (cos theta[k], sin theta[k]) from the unit-cell
    disk sid[k] (center c, radius rho).  A line in direction u is named
    by its offset x from c across u, so it meets the departure disk iff
    |x| <= rho.  Image j (center C, radius r) enters as ahead = (C - c).u
    and off = (C - c).n, where n is u turned by +90 degrees; kept are the
    images ahead (ahead > 0) whose shadow |x - off| < r meets the
    departure disk's and whose disk comes within radius of it.  The own
    (0,0) image is left out.  Columns are packed into one width K;
    valid marks the real ones.  Returns (rho (N,1), ahead, off, r,
    valid), each (N,K) but rho.
    """
    offs, ids, _ = table.image_candidates(radius)
    cx = table.centers[ids, 0] + offs[:, 0]
    cy = table.centers[ids, 1] + offs[:, 1]
    rho = table.radii[sid][:, None]
    ux, uy = np.cos(theta)[:, None], np.sin(theta)[:, None]
    dx = cx - table.centers[sid, 0][:, None]
    dy = cy - table.centers[sid, 1][:, None]
    ahead = dx * ux + dy * uy
    off = dy * ux - dx * uy
    r = table.radii[ids]
    own = (ids == sid[:, None]) & (offs[:, 0] == 0.0) & (offs[:, 1] == 0.0)
    keep = ((ahead > 0.0) & (np.abs(off) < rho + r) & ~own
            & (np.hypot(dx, dy) - rho - r <= radius))
    cols = np.argsort(~keep, axis=1, kind="stable")[:, :max(int(keep.sum(axis=1).max()), 1)]
    ahead, off, valid = (np.take_along_axis(a, cols, axis=1) for a in (ahead, off, keep))
    return rho, ahead, off, r[cols], valid


def _flight(rho, ahead, off, r, x):
    """Length of the line x from its exit off the departure disk to its
    entry into the image: a convex function of x where both are met."""
    return (ahead - np.sqrt(np.maximum(r * r - (x - off) ** 2, 0.0))
            - np.sqrt(np.maximum(rho * rho - x * x, 0.0)))


def _longest_flight(rho, ahead, off, r, valid):
    """Longest flight over the lines of each row, inf if a line meets no
    listed image.

    Disjoint disks are never entered at the same point, so along x the
    first hit switches images only where a shadow starts or ends; between
    such breakpoints it follows one convex _flight.  The longest flight
    is therefore the largest one-sided limit at a breakpoint, which
    includes the limit of flights just short of grazing an image.
    """
    lo, hi = np.where(valid, off - r, np.nan), np.where(valid, off + r, np.nan)
    b = np.concatenate([-rho, rho, lo, hi], axis=1)[:, :, None]
    g = _flight(rho[:, :, None], *(a[:, None, :] for a in (ahead, off, r)), b)
    lo, hi = lo[:, None, :], hi[:, None, :]
    left = np.where((lo < b) & (b <= hi), g, np.inf).min(axis=2)
    right = np.where((lo <= b) & (b < hi), g, np.inf).min(axis=2)
    b = b[:, :, 0]
    longest = np.maximum(np.where((-rho < b) & (b <= rho), left, -np.inf),
                         np.where((-rho <= b) & (b < rho), right, -np.inf))
    return longest.max(axis=1)


def _covered(rho, ahead, off, r, valid, delta, bound):
    """The cover test of the flight-bound lemma, per direction row.

    Row k stands for the directions I = [theta - delta, theta + delta]
    around its center direction u.  Every image disk is shrunk by
    bound*delta, and each gives the interval of lines x whose flight to
    the shrunk disk is at most L = bound - 2*rho*delta (an interval, as
    _flight is convex).  If these intervals cover |x| <= rho, every ray
    leaving the departure disk in a direction of I hits an image within
    bound, unless it grazes:

    - A departure point p that is outgoing for u is the exit point of
      its line, so p + tau*u with tau <= L lies in a shrunk disk.
    - A point that is outgoing for some direction of I but not for u is
      the entry point of its line, and the chord to the exit point is at
      most 2*rho*delta long.  This is what the 2*rho*delta slack is for:
      the point is still at most bound from the shrunk disk along u.
    - Turning u to any direction of I moves the point at distance
      t <= bound by at most t*delta, which the shrink absorbs, so the
      turned ray enters the full disk by then.

    The interval ends are bisected toward the inside, and a margin
    _COVER_EPS covers rounding in _flight.
    """
    r = r - bound * delta[:, None] - _COVER_EPS
    limit = bound - 2.0 * rho * delta[:, None] - _COVER_EPS
    lo = np.maximum(off - r, -rho)
    hi = np.minimum(off + r, rho)
    # the closest approach of the two disks along u
    best = np.clip(off * rho / (rho + np.maximum(r, 0.0)), lo, hi)
    args = (rho, ahead, off, r)
    ok = valid & (r > 0.0) & (lo <= hi) & (_flight(*args, best) <= limit)
    outer = np.stack([lo, hi])
    inner = np.where(_flight(*args, outer) <= limit, outer, best)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (outer + inner)
        inside = _flight(*args, mid) <= limit
        inner = np.where(inside, mid, inner)
        outer = np.where(inside, outer, mid)
    left = np.where(ok, inner[0], np.inf)
    right = np.where(ok, inner[1], -np.inf)
    order = np.argsort(left, axis=1)
    left = np.take_along_axis(left, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(right, order, axis=1), axis=1)
    before = np.concatenate([-rho, reach[:, :-1]], axis=1)
    return np.all((left <= before) | (before >= rho), axis=1) & (reach[:, -1] >= rho[:, 0])


def _certify_flights(table, bound, raise_bound, depth):
    """Branch and bound over (departure scatterer, direction interval).

    Starts from _N_DIRECTIONS intervals per scatterer and bisects the
    ones that fail _covered, at most depth times.  With raise_bound, the
    bound is first raised to (1 + _BOUND_MARGIN) times the longest
    exact flight at the new interval centers.  An interval that passes
    bounds its flights by the bound of its test, never more than the
    final one.  Returns (bound, intervals tested, certified).
    """
    n0 = _N_DIRECTIONS
    sid = np.repeat(np.arange(len(table)), n0)
    theta = np.tile(-np.pi + (np.arange(n0) + 0.5) * (2.0 * np.pi / n0), len(table))
    delta = np.full(len(sid), np.pi / n0)
    radius = max(bound, 1.0)
    tested = 0
    for _ in range(depth + 1):
        lines = _lines_ahead(table, sid, theta, radius)
        while raise_bound:
            longest = (1.0 + _BOUND_MARGIN) * float(_longest_flight(*lines).max())
            if longest <= radius:
                bound = max(bound, longest)
                break
            # some line may fly past every listed image: list more
            radius = 2.0 * radius if math.isinf(longest) else max(2.0 * radius, longest)
            lines = _lines_ahead(table, sid, theta, radius)
        ok = _covered(*lines, delta, bound)
        tested += len(ok)
        if ok.all():
            return bound, tested, True
        sid, theta, delta = (np.repeat(a[~ok], 2) for a in (sid, theta, delta))
        delta = 0.5 * delta
        theta = theta + np.tile([-1.0, 1.0], len(theta) // 2) * delta
    return bound, tested, False


def finite_horizon_probe(table: Table) -> HorizonCertificate:
    """Certify finite horizon and prove a bound on the free flight.

    Raises InfiniteHorizonError with the witness direction if any
    rational-direction corridor is open.  Otherwise _certify_flights
    proves that every ray leaving a scatterer, grazing aside, hits an
    image within l_max.  l_max starts a little above the longest exact
    flight at the interval centers; if the bisection still fails at its
    depth cap, l_max is raised and the search repeated with more depth.
    Finite horizon makes that end.
    """
    q_eff = max(_Q_SWEEP, int(math.ceil(1.0 / (2.0 * float(table.radii.max())))))
    witness = _corridor_witness(table.centers, table.radii, q_eff)
    if witness is not None:
        raise InfiniteHorizonError(
            f"free corridor in direction {witness}", witness=witness
        )
    bound, total, depth = 0.0, 0, _MAX_DEPTH
    while True:
        bound, tested, certified = _certify_flights(table, bound, True, depth)
        total += tested
        if certified:
            return HorizonCertificate(l_max=bound, q_checked=q_eff, intervals_tested=total)
        bound *= 1.0 + 10.0 * _BOUND_MARGIN
        depth += 2


def validate_table(scatterers) -> Table:
    """Build a Table, check disjointness, and attach a horizon certificate."""
    table = Table(scatterers)
    table.certificate = finite_horizon_probe(table)
    return table


def table_from_json(obj) -> Table:
    """Read a table's scatterers, then validate and certify the table."""
    f = ConfigReader(obj, "table")
    scatterers = [Scatterer(s.numbers("center", (float, float)), s.number("radius"))
                  for s in f.objects("scatterers")]
    f.close()
    return validate_table(scatterers)


@lru_cache(maxsize=1)
def _default_table_cached() -> Table:
    return validate_table(
        [Scatterer((0.0, 0.0), 0.4), Scatterer((0.5, 0.5), 0.2)]
    )


def default_table() -> Table:
    """The reference two-disk table used across tests and examples."""
    return _default_table_cached()
