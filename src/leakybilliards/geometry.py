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
L_max is the only flight bound of the package: a ray gets its first hit
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

# cells of the first-hit and disk rows: a flight leaving a scatterer
# falls in one of N_DIR direction sectors and one of N_OFF bins of its
# line's offset from the departure centre; each cell is padded by
# _CELL_PAD (radians, and units of the offset over the radius) and each
# image disk inflated by _CELL_MARGIN, which covers the graze tolerance
# and every rounding error in the ray data
N_DIR = 128
N_OFF = 8
_CELL_PAD = 1e-9
_CELL_MARGIN = 1e-6

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
    attached by validate_table; search_reach, the reach of every search
    for images, reads l_max from it and refuses to run without it.
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

    def search_reach(self) -> float:
        """Reach of the first-hit and disk rows: the certificate's l_max
        rounded to six decimals plus 1e-6, so every l_max that rounds
        alike lies below it, and the key of both row caches, so a
        replaced certificate gets rows of its own.  Raises
        InvalidArgumentError if the table has no horizon certificate."""
        if self.certificate is None:
            raise InvalidArgumentError("table has no horizon certificate")
        return round(float(self.certificate.l_max), 6) + 1e-6

    def _image_rows(self, centers, radii):
        """reachable_images of disks (centers (M,2), radii (M,)) at
        search_reach() and their cell_rows at that reach.  Returns (ids
        (K,), offsets (K,2), CellRows over the K translates)."""
        reach = self.search_reach()
        ids, offs = reachable_images(self, centers, radii, reach)
        return ids, offs, cell_rows(self, centers[ids] + offs, radii[ids], reach)

    def sector_candidates(self):
        """Per-cell first-hit candidates: the rows of every scatterer's
        reachable_images.  A ray leaving a disk's boundary meets nothing
        outside its row within reach; the disk's own (0,0) image, at
        distance 0, is in no row of its own.

        Returns (ids (M+1,), offsets (M+1,2), CellRows over the first M
        images): the last image is a sentinel, id -1 and offset 0, and
        the index of the rows' padding.  Cached per search_reach().
        """
        return self._candidates()[:3]

    def image_centers(self):
        """Centre of each image of sector_candidates(), (M+1, 2): the
        centre of its scatterer plus its offset, the sum the collision
        map's arrival point is measured from.  The sentinel's entry
        (the last scatterer's centre) means nothing."""
        return self._candidates()[3]

    def _candidates(self):
        reach = self.search_reach()
        if reach not in self._sectors:
            ids, offs, rows = self._image_rows(self.centers, self.radii)
            ids, offs = np.append(ids, -1), np.append(offs, [[0.0, 0.0]], axis=0)
            self._sectors[reach] = (ids, offs, rows, self.centers[ids] + offs)
        return self._sectors[reach]

    def disk_rows(self, center, radius: float):
        """Per-cell images of a disk, the rows of its reachable_images.
        Returns (rows, counts): row key of the CellRows lists nearest
        first the images a flight of cell key (row_keys) can meet, and
        counts[key] is its length; entries past it are padding.  Cached
        per center, radius and search_reach().  The disk must clear every
        scatterer, as a Type II hole does: an image centred on a
        departure centre is in no row.
        """
        cx, cy, radius = float(center[0]), float(center[1]), float(radius)
        key = (cx, cy, radius, self.search_reach())
        if key not in self._disks:
            _, _, rows = self._image_rows(np.array([[cx, cy]]), np.array([radius]))
            self._disks[key] = (rows, np.count_nonzero(np.isfinite(rows.lb), axis=0))
        return self._disks[key]


def reachable_images(table: Table, centers, radii, reach: float):
    """Integer translates of disks (centers (M,2), radii (M,)) that a
    flight of length at most reach, launched from a scatterer boundary
    in the unit cell, can meet: the one list of translates that the
    first-hit rows, the disk rows, the graze recheck and the flight
    certificate search.

    Launch points lie within d0 = sqrt(2)/2 + r_max of the cell
    midpoint, so a translate is kept when its distance from the
    midpoint, less its radius and d0, is within reach.  Returns (ids
    (K,), offsets (K,2) as floats) in (kx, ky, id) order.
    """
    d0 = math.sqrt(0.5) + float(table.radii.max())
    kmax = int(math.ceil(reach + float(radii.max()) + d0 + 1.0))
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    kx, ky, ids = (a.ravel() for a in np.meshgrid(ks, ks, np.arange(len(radii)), indexing="ij"))
    keep = np.flatnonzero(np.hypot(centers[ids, 0] + kx - 0.5, centers[ids, 1] + ky - 0.5)
                          - radii[ids] - d0 <= reach)
    return ids[keep], np.stack([kx[keep], ky[keep]], axis=1)


def row_keys(sid, normal, v):
    """Cell of each flight leaving scatterers sid at unit normals
    normal (N,2) in unit directions v (N,2), the key of its first-hit
    and disk rows: (sid*(N_DIR+1) + sector)*(N_OFF+1) + bin.

    The sector is that of atan2(v) among sectors of width 2*pi/N_DIR
    from -pi; the bin that of s = n_y*v_x - n_x*v_y among bins of width
    2/N_OFF from -1, where rho*s is the signed offset of the flight's
    line from the departure centre.  atan2 = pi and s >= 1 fall in one
    more sector and bin, so no key is clamped.  Cells are padded by
    _CELL_PAD, so rounding across an edge is harmless.  atan2 reads
    contiguous copies of the direction columns, which it takes at half
    the cost of the strided columns, with the same bits.
    """
    vx, vy = v[:, 0], v[:, 1]
    a = vy.copy()
    np.arctan2(a, np.ascontiguousarray(vx), out=a)
    a += np.pi
    a *= N_DIR / (2.0 * np.pi)
    key = np.multiply(sid, N_DIR + 1, dtype=np.int64)
    key += a.astype(np.int64)
    key *= N_OFF + 1
    np.multiply(normal[:, 1], vx, out=a)
    a -= normal[:, 0] * vy
    a += 1.0
    a *= 0.5 * N_OFF
    key += a.astype(np.int64)
    return key


class CellRows(NamedTuple):
    """Rows of disks, one per cell of row_keys, stored column by column.

    Each field is a (K, cells) array whose field[k] holds column k of
    every row as one contiguous vector, which a scan reads with
    field[k].take(key).  idx is the disk index, x and y its center and
    rho2 its squared radius.  lb is the flight lower bound, inf past
    the end of a row.  Padding has idx one past the last disk, center 0
    and rho2 -inf.
    """

    idx: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rho2: np.ndarray
    lb: np.ndarray


def cell_rows(table: Table, centers, radii, reach: float):
    """Disks a flight can meet, per cell of row_keys, as CellRows.

    A cell of departure disk (center c, radius rho) holds the flights
    leaving its boundary within delta = pi/N_DIR + _CELL_PAD of the
    sector's middle direction u, on lines at offset rho*s from c with s
    in the bin [s0, s1] padded by _CELL_PAD.  Take a disk of centers
    (M,2), radii (M,), its radius r inflated by _CELL_MARGIN, with
    d = |C - c|, a = (C - c).u and o = (C - c).u_perp.  Turning u by at
    most delta moves o by at most d*delta, so a flight of the cell,
    wherever it starts and however it points, can meet the disk within
    reach only if dist(o, rho*[s0, s1]) <= r + d*delta and
    a + d*delta + r + rho >= 0, and its flight to it is at least
    max(d - rho - r, a - d*delta - rho*sqrt(1 - s_min^2) - r), s_min
    the least |s| in the bin, which must be within reach.  Each row
    lists those disks but one at d = 0, the departure disk itself,
    sorted by that bound, padded to one width K.
    """
    theta = -np.pi + (np.arange(N_DIR + 1) + 0.5) * (2.0 * np.pi / N_DIR)
    delta = np.pi / N_DIR + _CELL_PAD
    edges = -1.0 + np.arange(N_OFF + 2) * (2.0 / N_OFF)
    s0, s1 = (edges[:-1] - _CELL_PAD)[:, None], (edges[1:] + _CELL_PAD)[:, None]
    s_min = np.where(s0 * s1 < 0.0, 0.0, np.minimum(np.abs(s0), np.abs(s1)))
    across = np.sqrt(1.0 - s_min * s_min)
    r = radii + _CELL_MARGIN
    parts = []
    for c, rho in zip(table.centers, table.radii):
        dx, dy = centers[:, 0] - c[0], centers[:, 1] - c[1]
        d = np.hypot(dx, dy)
        m = np.flatnonzero((d - rho - r <= reach) & (d > 0.0))
        dx, dy, d, rm = dx[m], dy[m], d[m], r[m]
        slack = rm + d * delta
        # axes: direction sector, offset bin, disk near the departure
        # disk; blocks of sectors keep each temporary under 64 KB: a
        # larger freed block raises glibc's mmap threshold, and with it
        # the freed heap later steps keep (peak RSS)
        step = max(1, 2 ** 13 // ((N_OFF + 1) * max(len(m), 1)))
        for u in range(0, N_DIR + 1, step):
            ux = np.cos(theta[u:u + step])[:, None, None]
            uy = np.sin(theta[u:u + step])[:, None, None]
            a, o = dx * ux + dy * uy, dy * ux - dx * uy
            bound = np.maximum(d - rho - rm, a - d * delta - rho * across - rm)
            member = ((o >= rho * s0 - slack) & (o <= rho * s1 + slack)
                      & (a + d * delta + rm + rho >= 0.0) & (bound <= reach))
            # no -1: a departure disk may have no disk within reach
            lb = np.where(member, bound, np.inf).reshape(len(ux) * (N_OFF + 1), len(m))
            order = np.argsort(lb, axis=1, kind="stable")[:, :member.sum(axis=2).max()]
            lb = np.take_along_axis(lb, order, axis=1)
            parts.append((lb, np.where(np.isfinite(lb), m[order], len(centers))))
    width = max(max(lb.shape[1] for lb, _ in parts), 1)
    pads = [((0, 0), (0, width - lb.shape[1])) for lb, _ in parts]
    lb = np.concatenate([np.pad(lb, w, constant_values=np.inf) for (lb, _), w in zip(parts, pads)])
    idx = np.concatenate([np.pad(i, w, constant_values=len(centers)) for (_, i), w in zip(parts, pads)])
    idx, lb = np.ascontiguousarray(idx.T), np.ascontiguousarray(lb.T)
    return CellRows(idx, np.append(centers[:, 0], 0.0)[idx], np.append(centers[:, 1], 0.0)[idx],
                    np.append(radii * radii, -np.inf)[idx], lb)


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


def first_hit_batch(table: Table, p0, v, row):
    """first_hit_images of rays p0, v (N,2) of cells row, with each
    image read as its scatterer id and integer offset: returns (t, sid,
    offset, grazed), with id -1 and offset 0 where there is no hit."""
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    row = np.asarray(row, dtype=np.int64).reshape(-1)
    t, img, grazed = first_hit_images(table, p0, v, row)
    ids, offs, _ = table.sector_candidates()
    return t, ids.take(img), offs.take(img, axis=0), grazed


def first_hit_images(table: Table, p0, v, row):
    """First hit of rays p0 + t*v (N,2) of cells row (row_keys of their
    departure), as (t, image, grazed): flight lengths (inf for no hit),
    indices into Table.sector_candidates() (the sentinel for no hit),
    and a flag for rays passing within GRAZE_TOLERANCE of a circle they
    did not hit, ahead of the accepted hit.  A ray without a hit is
    flagged if _sector_scan's loose pre-screen finds it near a circle
    of its row.

    Each ray gets its first hit within the certificate's l_max or no
    hit at all.  It is tested only against its row of
    Table.sector_candidates(), which holds every image a ray of its
    cell can meet within l_max; the departure disk's (0,0) image is in
    no row of its own, so rounding cannot produce a zero-length hit.
    The rows reach a little past l_max; a hit there is dropped, so the
    result does not depend on the padding.  A ray leaving its disk has
    no hit only if it grazes an image; any other such ray (one aimed
    into its own disk, say) is outside the proof.
    billiard_map.collide_cartesian censors those at departure and
    raises NoCollisionError for any other flight without a hit.
    """
    t, img, maybe_graze = _sector_scan(table, p0, v, row)
    far = ~(t <= table.certificate.l_max)
    np.copyto(t, np.inf, where=far)
    np.copyto(img, len(table.sector_candidates()[0]) - 1, where=far)
    return t, img, _graze_recheck(table, p0, v, t, maybe_graze)


def _column(cols, k, key, px, py, vx, vy):
    """The quadratic of rays p + t*v against column k of their rows
    key: with f = p - C and cc = |f|^2 - rho^2, returns hb = f.v,
    disc4 = hb*hb - cc and tsm = -hb - sqrt(max(disc4, 0)), each
    rounded as that expression is written.  tsm is formed as
    -(hb + sqrt(...)), which rounds alike but may give a zero the other
    sign; no zero passes the _T_EPS test."""
    fx = cols.x[k].take(key)
    np.subtract(px, fx, out=fx)
    fy = cols.y[k].take(key)
    np.subtract(py, fy, out=fy)
    hb = fx * vx
    tmp = fy * vy
    hb += tmp
    np.multiply(fx, fx, out=fx)
    np.multiply(fy, fy, out=fy)
    fx += fy
    fx -= cols.rho2[k].take(key)
    disc4 = np.multiply(hb, hb, out=fy)
    disc4 -= fx
    tsm = np.maximum(disc4, 0.0, out=fx)
    np.sqrt(tsm, out=tsm)
    tsm += hb
    np.negative(tsm, out=tsm)
    return hb, disc4, tsm


def _sector_scan(table, p0, v, key):
    """Column-by-column scan of each ray's candidate row, key.

    Every ray scans column 0, whose padding never hits or flags
    (rho2 = -inf).  A ray retires once its best flight is no longer
    than the next column's flight lower bound; each later column scans
    only the rays still in the scan, compacted, and its hits go
    straight into the result arrays by ray index.  Returns (t, image,
    maybe_graze): each ray's first hit among its row, which may lie a
    little past l_max, as its flight length and its index into
    Table.sector_candidates() (the sentinel for none), and the loose
    graze pre-screen flag that _graze_recheck settles.

    The arithmetic is the textbook quadratic's with b = 2*hb, which
    the full-scan oracle in the tests keeps: with hb = f.v,
    b*b - 4*cc = 4*(hb*hb - cc) and 0.5*(-b - sqrt(b*b - 4*cc)) =
    -hb - sqrt(hb*hb - cc) hold in floating point too, since they only
    scale by powers of two, so every flight length keeps its bits.
    """
    img_sid, _, cols = table.sector_candidates()
    px, py, vx, vy = p0[:, 0], p0[:, 1], v[:, 0], v[:, 1]
    hb, disc4, tsm = _column(cols, 0, key, px, py, vx, vy)
    ok = disc4 > 0.0
    ok &= tsm > _T_EPS
    # loose pre-screen; the exact grazing test reruns flagged rays
    maybe_graze = np.abs(disc4, out=disc4) < _GRAZE_SCREEN
    maybe_graze &= hb < -_T_EPS
    del hb, disc4
    best_t = np.where(ok, tsm, np.inf)
    del tsm
    best_img = np.where(ok, cols.idx[0].take(key), len(img_sid) - 1)
    del ok

    idx, bt = None, best_t
    for k in range(1, len(cols.idx)):
        keep = np.flatnonzero(bt > cols.lb[k].take(key))
        if not keep.size:
            break
        idx = keep if idx is None else idx.take(keep)
        key, px, py, vx, vy, bt = (a.take(keep) for a in (key, px, py, vx, vy, bt))
        hb, disc4, tsm = _column(cols, k, key, px, py, vx, vy)
        ok = (disc4 > 0.0) & (tsm > _T_EPS) & (tsm < bt)
        flag = (np.abs(disc4) < _GRAZE_SCREEN) & (hb < -_T_EPS)
        sel = np.flatnonzero(ok)
        rays = idx.take(sel)
        bt[sel] = best_t[rays] = tsm.take(sel)
        best_img[rays] = cols.idx[k].take(key.take(sel))
        maybe_graze[idx[flag]] = True

    return best_t, best_img, maybe_graze


def _graze_recheck(table, p0, v, best_t, maybe_graze):
    """Exact grazing test of the pre-screened rays over every image.

    A flagged ray grazes if it has no hit, or if it passes within
    GRAZE_TOLERANCE of an image's circle at a closest approach strictly
    between _T_EPS and its hit (the hit's own chord midpoint lies beyond
    it).  Flagged rays are tested against every image of
    Table.sector_candidates() but the sentinel at once, in blocks of
    _GRAZE_BLOCK rays.
    """
    grazed = np.zeros(len(best_t), dtype=bool)
    flagged = np.flatnonzero(maybe_graze)
    if not flagged.size:
        return grazed
    sids, offs, _ = table.sector_candidates()
    sids, offs = sids[:-1], offs[:-1]
    cx = table.centers[sids, 0] + offs[:, 0]
    cy = table.centers[sids, 1] + offs[:, 1]
    rho = table.radii[sids]
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
    departure disk's and whose disk comes within radius of it; the own
    (0,0) image, at ahead = 0, is not ahead.  Columns are packed into
    one width K; valid marks the real ones.  Returns (rho (N,1), ahead,
    off, r, valid), each (N,K) but rho.
    """
    ids, offs = reachable_images(table, table.centers, table.radii, radius)
    cx = table.centers[ids, 0] + offs[:, 0]
    cy = table.centers[ids, 1] + offs[:, 1]
    rho = table.radii[sid][:, None]
    ux, uy = np.cos(theta)[:, None], np.sin(theta)[:, None]
    dx = cx - table.centers[sid, 0][:, None]
    dy = cy - table.centers[sid, 1][:, None]
    ahead = dx * ux + dy * uy
    off = dy * ux - dx * uy
    r = table.radii[ids]
    keep = ((ahead > 0.0) & (np.abs(off) < rho + r)
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
    """Build a Table, check disjointness, attach a horizon certificate
    and build the first-hit rows now: built inside the first collision
    step, they pin its freed heap (about 1 MB more peak RSS)."""
    table = Table(scatterers)
    table.certificate = finite_horizon_probe(table)
    table.sector_candidates()
    return table


def scatterers_from_json(obj) -> list[Scatterer]:
    """A table config's scatterers, read but not yet validated."""
    f = ConfigReader(obj, "table")
    scatterers = [Scatterer(s.numbers("center", (float, float)), s.number("radius"))
                  for s in f.objects("scatterers")]
    f.close()
    return scatterers


def table_from_json(obj) -> Table:
    """Read a table's scatterers, then validate and certify the table."""
    return validate_table(scatterers_from_json(obj))


DEFAULT_SCATTERERS = (Scatterer((0.0, 0.0), 0.4), Scatterer((0.5, 0.5), 0.2))


@lru_cache(maxsize=1)
def _default_table_cached() -> Table:
    return validate_table(DEFAULT_SCATTERERS)


def default_table() -> Table:
    """The reference two-disk table used across tests and examples."""
    return _default_table_cached()
