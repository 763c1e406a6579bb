import dataclasses
import json
import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakybilliards import billiard_map as bmap
from leakybilliards import geometry, measures
from leakybilliards.errors import (
    ConfigError,
    InfiniteHorizonError,
    InvalidArgumentError,
    NoCollisionError,
    OverlappingScatterersError,
)
from leakybilliards.streams import stream


def test_default_table_shape(table):
    assert len(table) == 2
    assert table.scatterers[0].radius == 0.4
    assert table.scatterers[1].radius == 0.2
    # perimeter bookkeeping: cumulative starts at 0, ends at the total
    assert table.cum_perimeter[0] == 0.0
    assert math.isclose(table.cum_perimeter[-1], table.total_perimeter)
    assert math.isclose(table.total_perimeter, 2 * math.pi * 0.6)


def _rays(table, sid, r, phi):
    """Launch points and unit directions of boundary states (sid, r, phi)."""
    state = bmap.state_from_phase(table, sid, r, phi)
    return geometry.launch_points(table, state.sid, state.normal), state.velocity


def _row_keys(table, p0, v, sid):
    """geometry.row_keys of rays leaving disks sid at boundary points p0."""
    normal = (p0 - table.centers[sid]) / table.radii[sid][:, None]
    return geometry.row_keys(sid, normal, v)


def test_horizon_certificate(table):
    cert = table.certificate
    assert cert is not None
    # the certified bound is still a sane desk-scale number for this table
    assert cert.l_max < 2.5


def test_single_disk_has_infinite_horizon():
    # one small disk leaves the axis corridors open; witness is the
    # lexicographically first direction
    with pytest.raises(InfiniteHorizonError) as exc:
        geometry.validate_table([geometry.Scatterer((0.0, 0.0), 0.3)])
    assert exc.value.witness == (1, 0)


def test_overlap_rejected():
    with pytest.raises(OverlappingScatterersError):
        geometry.validate_table(
            [geometry.Scatterer((0.0, 0.0), 0.4), geometry.Scatterer((0.1, 0.0), 0.4)]
        )


def test_overlap_across_torus_edge():
    # touching through the periodic image, not inside the fundamental cell
    with pytest.raises(OverlappingScatterersError):
        geometry.validate_table(
            [geometry.Scatterer((0.05, 0.5), 0.3), geometry.Scatterer((0.95, 0.5), 0.3)]
        )


def test_table_json_roundtrip(table):
    obj = {"scatterers": [{"center": list(s.center), "radius": s.radius}
                          for s in table.scatterers]}
    clone = geometry.table_from_json(json.loads(json.dumps(obj)))
    assert len(clone) == len(table)
    for a, b in zip(clone.scatterers, table.scatterers):
        assert a.center == b.center and a.radius == b.radius
    # a string, a bool or a misspelt key is an error, never coerced or ignored
    for bad in (
        {"scatterers": [{"center": ["0.0", 0.0], "radius": 0.4}]},
        {"scatterers": [{"center": [0.0, 0.0], "radius": True}]},
        {"scatterers": [{"center": [0.0, 0.0], "radius": 0.4, "radus": 0.2}]},
        {"scatterers": [{"center": [0.0, 0.0], "radius": 0.4}], "scale": 2},
        {"scatterers": {"center": [0.0, 0.0], "radius": 0.4}},
    ):
        with pytest.raises(ConfigError):
            geometry.table_from_json(bad)


def test_table_json_malformed():
    with pytest.raises(ConfigError):
        geometry.table_from_json({"scatterers": [{"radius": 0.4}]})


def test_first_hit_within_certificate(table):
    # every flight from the boundary lands within the certified bound
    rng = stream(3, "hit-test")
    n = 2000
    u = rng.random(n)
    sid = (u * len(table)).astype(np.int64)
    r = rng.random(n) * table.perimeters[sid]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)
    p0, v = _rays(table, sid, r, phi)
    t, hit_sid, offset, grazed = geometry.first_hit_batch(table, p0, v, _row_keys(table, p0, v, sid))
    ok = hit_sid >= 0
    assert ok.mean() > 0.999
    assert np.all(t[ok] <= table.certificate.l_max)
    assert np.all(t[ok] > 0)


@settings(max_examples=30, deadline=None)
@given(
    r=st.floats(0.0, 2 * math.pi * 0.4 - 1e-9),
    phi=st.floats(-1.4, 1.4),
)
def test_ray_leaves_surface(r, phi):
    table = geometry.default_table()
    _, v = _rays(table, np.array([0]), np.array([r]), np.array([phi]))
    # outgoing rays point out of the scatterer: positive normal component
    n, _ = geometry.boundary_frame(table, np.array([0]), np.array([r]), 1.0, 0.0)
    assert float(v[0] @ n[0]) > 0


def _exit_rays(table, sid, theta, n):
    """n rays in direction theta leaving disk sid, one per line across it."""
    rho = table.radii[sid]
    x = np.linspace(-rho, rho, n)
    u = np.array([math.cos(theta), math.sin(theta)])
    p0 = (table.centers[sid] + x[:, None] * np.array([-u[1], u[0]])
          + np.sqrt(np.maximum(rho * rho - x * x, 0.0))[:, None] * u)
    return p0, np.tile(u, (n, 1)), np.full(n, sid)


def _with_l_max(table, l_max):
    """A fresh copy of table whose certificate claims l_max."""
    out = geometry.Table(table.scatterers)
    out.certificate = dataclasses.replace(table.certificate, l_max=l_max)
    return out


def _longest_flight(table, p0, v, sid):
    t, hit, _, grazed = geometry.first_hit_batch(_with_l_max(table, 8.0), p0, v,
                                                 _row_keys(table, p0, v, sid))
    ok = (hit >= 0) & ~grazed
    assert ok.mean() > 0.999
    return float(t[ok].max())


def test_certified_flight_bound_on_default_table(table):
    # a dense sweep of the lines leaving scatterer 0 at 2.4983 rad finds
    # the longest flight known on this table, 1.50699
    known = _longest_flight(table, *_exit_rays(table, 0, 2.4983, 20001))
    assert known > 1.5069
    assert known <= table.certificate.l_max <= 1.55
    builds = []
    for _ in range(3):
        fresh = geometry.Table(table.scatterers)
        start = time.perf_counter()
        cert = geometry.finite_horizon_probe(fresh)
        builds.append(time.perf_counter() - start)
        assert cert == table.certificate
    assert min(builds) < 0.1


def test_flight_bound_check_refuses_a_bound_below_a_known_flight(table):
    # 1.5065 lies below the known flight of 1.50699, so no sound cover
    # test passes every direction interval; 1.51 lies above it and passes
    depth = geometry._MAX_DEPTH
    assert not geometry._certify_flights(table, 1.5065, False, depth)[2]
    assert geometry._certify_flights(table, 1.51, False, depth)[2]


def test_probe_raises_the_bound_when_bisection_runs_out(table, monkeypatch):
    # one bisection is too few at the first bound, so the probe raises
    # it and searches deeper; the looser bound is still a proof
    monkeypatch.setattr(geometry, "_MAX_DEPTH", 1)
    cert = geometry.finite_horizon_probe(geometry.Table(table.scatterers))
    assert table.certificate.l_max < cert.l_max < 1.6
    assert not geometry._certify_flights(table, 0.0, True, 1)[2]


@pytest.mark.parametrize("which", ["four-disk", "near-corridor"])
def test_certified_flight_bound_covers_sampled_flights(which):
    scatterers = {
        "four-disk": [(0.0, 0.0, 0.3), (0.5, 0.5, 0.25), (0.5, 0.0, 0.1), (0.0, 0.5, 0.1)],
        # the (1, 0) corridor is closed by a 0.01 overlap of the shadows
        "near-corridor": [(0.0, 0.0, 0.4), (0.5, 0.5, 0.11)],
    }[which]
    table = geometry.validate_table(
        [geometry.Scatterer((x, y), rho) for x, y, rho in scatterers])
    rng = stream(7, "certificate-sample")
    n = 200_000
    sid = rng.integers(0, len(table), n)
    r = rng.random(n) * table.perimeters[sid]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)
    p0, v = _rays(table, sid, r, phi)
    assert _longest_flight(table, p0, v, sid) <= table.certificate.l_max


def bin_edge_departures(rng, m):
    """m departures (normal (m,2), v (m,2)) along the axes whose offset
    s = n_y*v_x - n_x*v_y lies exactly on an offset-bin edge or 1 ulp
    to either side; s = +-1 are tangent departures.

    s = n_y along v = (1, 0), and quarter turns, exact in floating
    point, keep s and put v on the other axes.  They depart outward: one
    aimed inward within 1e-8 of tangent grazes its own disk, which no
    row holds (collide_cartesian censors that departure), while the
    full scan's pre-screen counts it.
    """
    s = -1.0 + 2.0 * rng.integers(0, geometry.N_OFF + 1, m) / geometry.N_OFF
    s = np.nextafter(s, s + rng.integers(-1, 2, m))
    ray = np.stack([np.ones(m), np.zeros(m), np.sqrt(np.maximum(1.0 - s * s, 0.0)), s], axis=1)
    for _ in range(3):
        turn = rng.random(m) < 0.5
        ray[turn] = np.stack([-ray[turn, 1], ray[turn, 0], -ray[turn, 3], ray[turn, 2]], axis=1)
    return ray[:, 2:], ray[:, :2]


def _tangent_and_random_rays(table, reach, n, seed):
    """Boundary rays: a third aimed exactly tangent to an image disk, a
    sixth along direction-sector edges, a twelfth along the axes from
    departures whose offset s = n_y*v_x - n_x*v_y lies exactly on an
    offset-bin edge or 1 ulp to either side (s = +-1 among them), a
    twelfth tangent to their own disk, the rest cosine-law.  Returns
    (p0, normal, v, sid)."""
    rng = stream(seed, "sector-rays")
    sid = rng.integers(0, len(table), n)
    r = rng.random(n) * table.perimeters[sid]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)
    _, normal, v = bmap.state_from_phase(table, sid, r, phi)

    n_tan = n // 3
    p0 = geometry.launch_points(table, sid[:n_tan], normal[:n_tan])
    k = int(math.ceil(reach)) + 1
    grid = [(dx, dy, j) for dx in range(-k, k + 1) for dy in range(-k, k + 1)
            for j in range(len(table))]
    pick = rng.integers(0, len(grid), n_tan)
    dx, dy, j = (np.array([grid[i][c] for i in pick]) for c in range(3))
    cx = table.centers[j, 0] + dx - p0[:, 0]
    cy = table.centers[j, 1] + dy - p0[:, 1]
    dist = np.hypot(cx, cy)
    rho = table.radii[j]
    side = np.where(rng.random(n_tan) < 0.5, -1.0, 1.0)
    beta = side * np.arcsin(np.minimum(rho / dist, 1.0))
    ang = np.arctan2(cy, cx) + beta
    usable = (dist > rho) & ~((dx == 0) & (dy == 0) & (j == sid[:n_tan]))
    v[:n_tan][usable] = np.stack([np.cos(ang), np.sin(ang)], axis=1)[usable]

    lo, hi = n_tan, n_tan + n // 6
    edges = -math.pi + 2.0 * math.pi * rng.integers(0, geometry.N_DIR + 1, hi - lo) / geometry.N_DIR
    v[lo:hi] = np.stack([np.cos(edges), np.sin(edges)], axis=1)

    lo, hi = hi, hi + n // 12
    normal[lo:hi], v[lo:hi] = bin_edge_departures(rng, hi - lo)

    lo, hi = hi, hi + n // 12
    side = np.where(rng.random(hi - lo) < 0.5, -1.0, 1.0)[:, None]
    v[lo:hi] = side * np.stack([-normal[lo:hi, 1], normal[lo:hi, 0]], axis=1)
    p0 = np.concatenate([p0, geometry.launch_points(table, sid[n_tan:], normal[n_tan:])])
    return p0, normal, v, sid


def strided_row_keys(sid, normal, v):
    """geometry.row_keys as it was, atan2 on the strided direction
    columns and the key in separate passes, kept as its oracle."""
    vx, vy = v[:, 0], v[:, 1]
    sector = ((np.arctan2(vy, vx) + np.pi) * (geometry.N_DIR / (2.0 * np.pi))).astype(np.int64)
    off = ((normal[:, 1] * vx - normal[:, 0] * vy + 1.0) * (0.5 * geometry.N_OFF)).astype(np.int64)
    return (sid * (geometry.N_DIR + 1) + sector) * (geometry.N_OFF + 1) + off


def test_row_keys_match_the_strided_formula(table):
    _, normal, v, sid = _tangent_and_random_rays(table, table.certificate.l_max, 100_000, 11)
    nu = measures.sample_nu_state(table, 100_000, stream(11, "row-keys"))
    sid, normal, v = (np.concatenate(a) for a in zip((sid, normal, v), nu))
    before = v.tobytes()
    key = geometry.row_keys(sid, normal, v)
    assert key.dtype == np.int64
    assert key.tobytes() == strided_row_keys(sid, normal, v).tobytes()
    # one row, whose columns are contiguous views: the directions stay put
    assert geometry.row_keys(sid[:1], normal[:1], v[:1])[0] == key[0]
    assert v.tobytes() == before


def _four_disk_table():
    return geometry.validate_table([
        geometry.Scatterer((0.0, 0.0), 0.3),
        geometry.Scatterer((0.5, 0.5), 0.25),
        geometry.Scatterer((0.5, 0.0), 0.1),
        geometry.Scatterer((0.0, 0.5), 0.1),
    ])


@pytest.mark.parametrize("which", ["default", "four-disk"])
def test_mean_free_path_is_santalo(table, which):
    # Santalo: under nu the mean free flight is pi |Q| / |dQ|, with |Q|
    # the area of the torus outside the disks and |dQ| their perimeter
    # (0.309734 on the default table); an independent check of every
    # flight length first_hit_batch returns
    if which == "four-disk":
        table = _four_disk_table()
    area = 1.0 - math.pi * float(np.sum(table.radii ** 2))
    santalo = math.pi * area / table.total_perimeter
    if which == "default":
        assert abs(santalo - 0.309734) < 1e-6
    n = 200_000
    state = measures.sample_nu_state(table, n, stream(2718, "santalo", which))
    out = bmap.collide_cartesian(table, *state)
    assert not out.censored.any()
    t = out.flight_length
    assert abs(t.mean() - santalo) < 4.0 * t.std() / math.sqrt(n)


def _cell_samples(table, sid, m):
    """Rays over every padded cell of departure disk sid: m directions
    from edge to edge of the padded sector, m offsets s from edge to
    edge of the padded bin (clipped to [-1, 1], so s = +-1 is among
    them), and from each such line both of its points on the disk's
    boundary, the exit and the entry, whose ray is aimed into its own
    disk.  Returns (cell key, p0, v), one entry per ray."""
    nd, no, pad = geometry.N_DIR, geometry.N_OFF, geometry._CELL_PAD
    w = np.linspace(0.0, 1.0, m)
    half = math.pi / nd + pad
    theta = (-math.pi + (np.arange(nd + 1)[:, None] + 0.5) * (2.0 * math.pi / nd)
             + (2.0 * w - 1.0) * half)
    s0 = -1.0 + np.arange(no + 1) * (2.0 / no) - pad
    s = np.clip(s0[:, None] + w * (2.0 / no + 2.0 * pad), -1.0, 1.0)
    # axes: sector, direction, bin, offset, side
    ux = np.cos(theta)[:, :, None, None, None]
    uy = np.sin(theta)[:, :, None, None, None]
    s = s[None, None, :, :, None]
    along = np.array([-1.0, 1.0]) * np.sqrt(1.0 - s * s)
    c, rho = table.centers[sid], table.radii[sid]
    shape = np.broadcast_shapes(ux.shape, s.shape, along.shape)
    px = np.broadcast_to(c[0] + rho * (along * ux - s * uy), shape).ravel()
    py = np.broadcast_to(c[1] + rho * (along * uy + s * ux), shape).ravel()
    vx, vy = np.broadcast_to(ux, shape).ravel(), np.broadcast_to(uy, shape).ravel()
    cell = (sid * (nd + 1) + np.arange(nd + 1))[:, None] * (no + 1) + np.arange(no + 1)
    key = np.broadcast_to(cell[:, None, :, None, None], shape).ravel()
    return key, np.stack([px, py], axis=1), np.stack([vx, vy], axis=1)


def _check_rows_by_sampling(table, rows, centers, radii, own, m):
    """Sample every cell (_cell_samples) against every disk (centers
    (J,2), radii (J,)) but those own (S, J) marks for a departure disk:
    each disk that a sampled ray meets within search_reach(), or passes
    within 1e-6 of (less 1e-9 for rounding), must be in the cell's row,
    with a bound no larger than the flight to it.  Returns the number of
    (ray, disk) meetings checked."""
    reach = table.search_reach()
    where = {(x, y): j for j, (x, y) in enumerate(centers.tolist())}
    bound = np.full((rows.idx.shape[1], len(centers)), np.inf)
    for k, key in zip(*np.nonzero(np.isfinite(rows.lb))):
        bound[key, where[rows.x[k, key], rows.y[k, key]]] = rows.lb[k, key]
    grow = radii + 1e-6 - 1e-9
    checked = 0
    for sid in range(len(table)):
        near = np.flatnonzero(np.hypot(*(centers - table.centers[sid]).T)
                              - table.radii[sid] - grow <= reach + 1e-6)
        near = near[~own[sid, near]]
        key, p0, v = _cell_samples(table, sid, m)
        for lo in range(0, len(key), 8192):
            fx = centers[near, 0] - p0[lo:lo + 8192, 0, None]
            fy = centers[near, 1] - p0[lo:lo + 8192, 1, None]
            tc = fx * v[lo:lo + 8192, 0, None] + fy * v[lo:lo + 8192, 1, None]
            gap = grow[near] ** 2 - (fx * fx + fy * fy - tc * tc)
            chord = np.sqrt(np.maximum(gap, 0.0))
            t_in = np.maximum(tc - chord, 0.0)
            meet = (gap > 0.0) & (tc + chord >= 0.0) & (t_in <= reach)
            got = bound[key[lo:lo + 8192, None], near]
            assert np.all(got[meet] <= t_in[meet] + 1e-12)
            checked += int(meet.sum())
    return checked


@pytest.mark.parametrize("which", ["default", "four-disk"])
def test_rows_hold_every_disk_a_sampled_ray_meets(table, which):
    # the row lemma of geometry.cell_rows, by sampling whole padded
    # cells: the first-hit rows over the scatterer images, then the
    # disk rows of a hole
    if which == "four-disk":
        table = _four_disk_table()
    reach = table.search_reach()
    k = int(math.ceil(reach)) + 2
    grid = [(dx, dy, j) for dx in range(-k, k + 1) for dy in range(-k, k + 1)
            for j in range(len(table))]
    ids = np.array([g[2] for g in grid])
    offs = np.array([g[:2] for g in grid], dtype=float)
    centers = table.centers[ids] + offs
    own = (ids == np.arange(len(table))[:, None]) & np.all(offs == 0.0, axis=1)
    checked = _check_rows_by_sampling(
        table, table.sector_candidates()[2], centers, table.radii[ids], own, 6)
    assert checked > 100_000

    center, radius = {"default": ((0.5, 0.0), 0.05), "four-disk": ((0.25, 0.27), 0.04)}[which]
    offs = np.array([(dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1)], dtype=float)
    centers = np.stack([center[0] + offs[:, 0], center[1] + offs[:, 1]], axis=1)
    checked = _check_rows_by_sampling(
        table, table.disk_rows(center, radius)[0], centers, np.full(len(offs), radius),
        np.zeros((len(table), len(offs)), dtype=bool), 6)
    assert checked > 10_000


@pytest.mark.parametrize("which", ["default", "four-disk"])
@pytest.mark.parametrize("l_max", [None, 0.4, 1.4])
def test_rows_do_not_depend_on_how_images_are_listed(table, which, l_max):
    # the first-hit rows from reachable_images equal, byte for byte, the
    # rows of the full image lattice out to kmax with each departure
    # disk's own (0,0) image left out by a mask
    if which == "four-disk":
        table = _four_disk_table()
    if l_max is not None:
        table = _with_l_max(table, l_max)
    reach = table.search_reach()
    kmax = int(math.ceil(reach + 2.0 * float(table.radii.max()) + 1.0 + geometry._CELL_MARGIN))
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    kx, ky, ids = (a.ravel() for a in np.meshgrid(ks, ks, np.arange(len(table)), indexing="ij"))
    centers = np.stack([table.centers[ids, 0] + kx, table.centers[ids, 1] + ky], axis=1)
    own = (ids == np.arange(len(table))[:, None]) & (kx == 0.0) & (ky == 0.0)
    dist = np.hypot(centers[:, 0] - table.centers[:, 0, None],
                    centers[:, 1] - table.centers[:, 1, None])
    assert np.array_equal(own, dist == 0.0)

    # one departure disk at a time, each over the lattice less its own
    # image, padded to one width as cell_rows pads its rows
    parts = []
    for i, out in enumerate(own):
        one = types.SimpleNamespace(centers=table.centers[i:i + 1], radii=table.radii[i:i + 1])
        rows = geometry.cell_rows(one, centers[~out], table.radii[ids[~out]], reach)
        parts.append({"lb": rows.lb, "x": rows.x, "y": rows.y, "rho2": rows.rho2,
                      "sid": np.append(ids[~out], -1)[rows.idx],
                      "kx": np.append(kx[~out], 0.0)[rows.idx],
                      "ky": np.append(ky[~out], 0.0)[rows.idx]})
    width = max(p["lb"].shape[0] for p in parts)
    fill = {"lb": np.inf, "x": 0.0, "y": 0.0, "rho2": -np.inf, "sid": -1, "kx": 0.0, "ky": 0.0}
    want = {k: np.concatenate([np.pad(p[k], ((0, width - len(p[k])), (0, 0)), constant_values=v)
                               for p in parts], axis=1) for k, v in fill.items()}

    img_sid, img_off, rows = table.sector_candidates()
    r_ids, r_offs = geometry.reachable_images(table, table.centers, table.radii, reach)
    assert np.array_equal(img_sid, np.append(r_ids, -1))
    assert img_off.tobytes() == np.append(r_offs, [[0.0, 0.0]], axis=0).tobytes()
    assert len(img_sid) < len(ids)
    got = {"lb": rows.lb, "x": rows.x, "y": rows.y, "rho2": rows.rho2,
           "sid": img_sid[rows.idx], "kx": img_off[rows.idx, 0], "ky": img_off[rows.idx, 1]}
    for k in fill:
        assert got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes(), k


def _full_scan(table, p0, v, skip_sid, reach):
    """Scan of every image within reach, nearest lower bound first: the
    search the sector scan replaced, kept as its oracle.

    Returns (t, sid, offset, maybe_graze): the first hit of each ray
    among _loop_image_candidates(reach), possibly beyond reach, and the
    loose graze pre-screen flag that _graze_recheck settles.
    """
    offs, sids, lbs = _loop_image_candidates(table, reach)
    centers, radii = table.centers, table.radii
    n = p0.shape[0]

    best_t = np.full(n, np.inf)
    best_sid = np.full(n, -1, dtype=np.int64)
    best_off = np.zeros((n, 2))
    maybe_graze = np.zeros(n, dtype=bool)
    active = np.arange(n)

    chunk = 12
    i = 0
    m = len(sids)
    while i < m and active.size:
        hi = min(i + chunk, m)
        pa = p0[active]
        va = v[active]
        bt = best_t[active]
        bs = best_sid[active]
        bo = best_off[active]
        mg = maybe_graze[active]
        ska = skip_sid[active]
        for c in range(i, hi):
            j = sids[c]
            ox, oy = offs[c]
            rho = radii[j]
            fx = pa[:, 0] - (centers[j, 0] + ox)
            fy = pa[:, 1] - (centers[j, 1] + oy)
            b = 2.0 * (fx * va[:, 0] + fy * va[:, 1])
            cc = fx * fx + fy * fy - rho * rho
            disc = b * b - 4.0 * cc
            hit = disc > 0.0
            tsm = 0.5 * (-b - np.sqrt(np.where(hit, disc, 0.0)))
            ok = hit & (tsm > geometry._T_EPS) & (tsm < bt)
            if ox == 0.0 and oy == 0.0:
                ok &= ska != j
            if np.any(ok):
                bt = np.where(ok, tsm, bt)
                bs = np.where(ok, j, bs)
                bo[ok, 0] = ox
                bo[ok, 1] = oy
            imp = np.sqrt(np.maximum(cc + rho * rho - 0.25 * b * b, 0.0))
            mg |= (np.abs(imp - rho) < 1e-9) & (-0.5 * b > geometry._T_EPS)
        best_t[active] = bt
        best_sid[active] = bs
        best_off[active] = bo
        maybe_graze[active] = mg
        if hi < m:
            active = active[bt > lbs[hi]]
        i = hi
    return best_t, best_sid, best_off, maybe_graze


@pytest.mark.parametrize("which", ["default", "four-disk"])
def test_sector_scan_is_bit_identical_to_full_scan(table, which):
    if which == "four-disk":
        table = _four_disk_table()
    for searched in (table, _with_l_max(table, 0.4)):
        reach = searched.certificate.l_max
        p0, n, v, sid = _tangent_and_random_rays(table, reach, 100_000, 5)
        t, hit, off, grazed = geometry.first_hit_batch(searched, p0, v, geometry.row_keys(sid, n, v))
        ft, fhit, foff, maybe = _full_scan(table, p0, v, sid, reach)
        fgrazed = geometry._graze_recheck(searched, p0, v, ft, maybe)
        # the oracle's hit within reach, bit for bit; past reach, none
        near = ft <= reach
        for got, want in ((t, ft), (hit, fhit), (off, foff), (grazed, fgrazed)):
            assert got.dtype == want.dtype
            assert got[near].tobytes() == want[near].tobytes()
        assert np.all(np.isinf(t[~near])) and np.all(hit[~near] == -1)
        assert np.all(off[~near] == 0.0)
        assert grazed.sum() > 500
        if reach < 1.0:
            assert np.sum(~near) > 1000 and np.any(fhit[~near] >= 0)


@pytest.mark.parametrize("reach", [0.4, 1.0])
def test_first_hit_lies_within_reach_or_is_none(table, reach):
    # a hit past reach is no hit; the full-scan fallback once returned
    # one, and not always the nearest
    sid, r, phi = measures.sample_nu(table, 20_000, stream(13, "within-reach"))
    p0, v = _rays(table, sid, r, phi)
    t, hit, off, _ = geometry.first_hit_batch(_with_l_max(table, reach), p0, v,
                                              _row_keys(table, p0, v, sid))
    none = hit < 0
    assert np.all(t[~none] <= reach)
    assert np.all(np.isinf(t[none])) and np.all(off[none] == 0.0)
    assert none.sum() > 100


def test_broken_certificate_fails_on_every_flight_without_a_hit(table):
    # with l_max lowered below the longest flight (1.50699), every
    # uncensored, non-grazing flight that the full scan first meets past
    # the bound is counted; none is given a hit past it
    low = geometry.Table(table.scatterers)
    low.certificate = dataclasses.replace(table.certificate, l_max=1.4)
    state = measures.sample_nu_state(table, 200_000, stream(17, "low-certificate"))
    p0 = geometry.launch_points(low, state.sid, state.normal)
    ft, _, _, _ = _full_scan(low, p0, state.velocity, state.sid, 1.4)
    _, _, _, grazed = geometry.first_hit_batch(
        low, p0, state.velocity, geometry.row_keys(*state))
    departure = np.sum(state.velocity * state.normal, axis=1) < bmap._COS_GUARD
    want = int(np.sum(~(ft <= 1.4) & ~(departure | grazed)))
    assert want > 1000
    with pytest.raises(NoCollisionError, match=f"^{want} flights found no scatterer"):
        bmap.collide_cartesian(low, *state)


def _loop_image_candidates(table, reach):
    """Scatterer images within reach by a scalar loop: images in
    (kx, ky, id) order, math.hypot bounds clamped at 0, a stable sort by
    bound.  Returns (offsets, ids, bounds)."""
    d0 = math.sqrt(0.5) + float(table.radii.max())
    kmax = int(math.ceil(reach + d0 + 1.0))
    offs, sids, lbs = [], [], []
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            for j in range(len(table.scatterers)):
                cx = table.centers[j, 0] + kx
                cy = table.centers[j, 1] + ky
                lb = math.hypot(cx - 0.5, cy - 0.5) - table.radii[j] - d0
                if lb <= reach:
                    offs.append((float(kx), float(ky)))
                    sids.append(j)
                    lbs.append(max(lb, 0.0))
    order = np.argsort(np.array(lbs), kind="stable")
    return (np.array(offs)[order], np.array(sids, dtype=np.int64)[order],
            np.array(lbs)[order])


@pytest.mark.parametrize("which", ["default", "four-disk"])
def test_image_candidates_match_the_image_loop(table, which):
    # reachable_images keeps the loop's images, in (kx, ky, id) order
    if which == "four-disk":
        table = _four_disk_table()
    for reach in (0.4, 1.0, table.certificate.l_max, 8.0, 16.0):
        ids, offs = geometry.reachable_images(table, table.centers, table.radii, reach)
        assert ids.dtype == np.int64 and offs.shape == (len(ids), 2)
        got = list(zip(offs[:, 0].tolist(), offs[:, 1].tolist(), ids.tolist()))
        w_offs, w_ids, _ = _loop_image_candidates(table, reach)
        want = zip(w_offs[:, 0].tolist(), w_offs[:, 1].tolist(), w_ids.tolist())
        assert got == sorted(got) and len(set(got)) == len(got)
        assert set(got) == set(want)


def test_search_needs_a_certificate(table):
    bare = geometry.Table(table.scatterers)
    p0, v = _rays(table, np.array([0]), np.array([0.1]), np.array([0.2]))
    with pytest.raises(InvalidArgumentError, match="no horizon certificate"):
        geometry.first_hit_batch(bare, p0, v, _row_keys(table, p0, v, np.array([0])))
    with pytest.raises(InvalidArgumentError, match="no horizon certificate"):
        bare.disk_rows((0.5, 0.0), 0.05)


def _old_sector_scan(table, p0, v, key):
    """The row scan with the full scan's b = 2*(f.v) arithmetic and its
    graze pre-screen |imp - rho| < 1e-9, kept as the oracle of the
    half-b scan.  Returns (t, image index, pre-screen flags)."""
    img_sid, _, cols = table.sector_candidates()
    bt = np.full(len(key), np.inf)
    bi = np.full(len(key), -1)
    flags = np.zeros(len(key), dtype=bool)
    for k in range(len(cols.idx)):
        live = bt > cols.lb[k, key]
        c = cols.idx[k, key]
        rho = table.radii[img_sid[c]]
        fx = p0[:, 0] - cols.x[k, key]
        fy = p0[:, 1] - cols.y[k, key]
        b = 2.0 * (fx * v[:, 0] + fy * v[:, 1])
        cc = fx * fx + fy * fy - rho * rho
        disc = b * b - 4.0 * cc
        hit = disc > 0.0
        tsm = 0.5 * (-b - np.sqrt(np.where(hit, disc, 0.0)))
        ok = live & hit & (tsm > geometry._T_EPS) & (tsm < bt)
        bt = np.where(ok, tsm, bt)
        bi = np.where(ok, c, bi)
        imp = np.sqrt(np.maximum(cc + rho * rho - 0.25 * b * b, 0.0))
        flags |= live & (np.abs(imp - rho) < 1e-9) & (-0.5 * b > geometry._T_EPS)
    return bt, bi, flags


@pytest.mark.parametrize("which", ["default", "four-disk"])
def test_graze_pre_screen_flags_what_the_impact_parameter_test_flags(table, which):
    if which == "four-disk":
        table = _four_disk_table()
    reach = table.certificate.l_max
    p0, n, v, sid = _tangent_and_random_rays(table, reach, 100_000, 5)
    # turn the tangent third by up to 3e-9 rad, which spreads |imp - rho|
    # over the whole band the 1e-9 test flags
    n_tan = len(sid) // 3
    eps = stream(6, "screen").uniform(-3e-9, 3e-9, n_tan)
    vx, vy = v[:n_tan, 0].copy(), v[:n_tan, 1].copy()
    v[:n_tan, 0] = np.cos(eps) * vx - np.sin(eps) * vy
    v[:n_tan, 1] = np.sin(eps) * vx + np.cos(eps) * vy
    key = geometry.row_keys(sid, n, v)
    t, img, flags = geometry._sector_scan(table, p0, v, key)
    want_t, want_img, want_flags = _old_sector_scan(table, p0, v, key)
    img_sid, _, _ = table.sector_candidates()
    assert t.tobytes() == want_t.tobytes()
    assert np.array_equal(img_sid[img], np.where(want_img >= 0, img_sid[want_img], -1))
    assert want_flags.sum() > 500
    assert np.all(flags[want_flags])


def _graze_recheck_oracle(table, p0, v, best_t, maybe_graze, reach):
    """The scalar loop geometry._graze_recheck replaced, kept as its
    oracle, over the images within reach."""
    offs, sids, _ = _loop_image_candidates(table, reach)
    centers, radii = table.centers, table.radii
    grazed = np.zeros(len(best_t), dtype=bool)
    for idx in np.flatnonzero(maybe_graze):
        tb = best_t[idx]
        if not np.isfinite(tb):
            grazed[idx] = True
            continue
        for c in range(len(sids)):
            j = sids[c]
            rho = radii[j]
            fx = p0[idx, 0] - (centers[j, 0] + offs[c, 0])
            fy = p0[idx, 1] - (centers[j, 1] + offs[c, 1])
            bq = 2.0 * (fx * v[idx, 0] + fy * v[idx, 1])
            t_close = -0.5 * bq
            if not (geometry._T_EPS < t_close < tb):
                continue
            imp2 = fx * fx + fy * fy - t_close * t_close
            if abs(math.sqrt(max(imp2, 0.0)) - rho) < geometry.GRAZE_TOLERANCE:
                grazed[idx] = True
                break
    return grazed


def test_graze_recheck_matches_scalar_oracle(table):
    reach = table.certificate.l_max
    p0, n, v, sid = _tangent_and_random_rays(table, reach, 100_000, 5)
    t, _, maybe = geometry._sector_scan(table, p0, v, geometry.row_keys(sid, n, v))
    got = geometry._graze_recheck(table, p0, v, t, maybe)
    want = _graze_recheck_oracle(table, p0, v, t, maybe, reach)
    assert got.tobytes() == want.tobytes()
    assert want.sum() > 500 and maybe.sum() > want.sum()
