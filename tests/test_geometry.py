import dataclasses
import json
import math
import time

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
    t, hit_sid, offset, grazed = geometry.first_hit_batch(table, p0, v, skip_sid=sid)
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
    t, hit, _, grazed = geometry.first_hit_batch(_with_l_max(table, 8.0), p0, v, sid)
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


def test_pie_slice_distance_known_points():
    a0, a1, radius = 0.0, math.pi / 4, 1.0
    c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
    pts = np.array([
        (0.5, 0.1),            # inside
        (2.0, 0.0),            # beyond the arc, on the lower edge's line
        (3 * c8, 3 * s8),      # beyond the arc, on the bisector
        (0.5, -0.3),           # below the lower edge
        (-1.0, 0.0),           # behind the apex
        (1.5, -0.5),           # nearest to the lower edge's far end
        (0.0, 0.0),            # the apex itself
    ])
    want = [0.0, 1.0, 2.0, 0.3, 1.0, math.hypot(0.5, 0.5), 0.0]
    got = geometry.pie_slice_distance(pts[:, 0], pts[:, 1], a0, a1, radius)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_pie_slice_distance_matches_dense_sampling():
    rng = stream(11, "pie-slice")
    a0 = rng.uniform(-math.pi, math.pi)
    a1 = a0 + rng.uniform(0.05, 3.0)
    radius = 1.3
    t, a = np.meshgrid(np.linspace(0.0, radius, 201), np.linspace(a0, a1, 401))
    sx, sy = (t * np.cos(a)).ravel(), (t * np.sin(a)).ravel()
    px, py = rng.uniform(-3.0, 3.0, (2, 200))
    brute = np.hypot(px[:, None] - sx, py[:, None] - sy).min(axis=1)
    got = geometry.pie_slice_distance(px, py, a0, a1, radius)
    # every point of the slice is within half a grid-cell diagonal,
    # 0.5 * hypot(1.3/200, 3.0*1.3/400) < 0.006, of a sample
    assert np.all(got <= brute + 1e-12)
    assert np.all(brute - got < 0.006)


def _tangent_and_random_rays(table, reach, n, seed):
    """Boundary rays: a third aimed exactly tangent to an image disk,
    a sixth along sector edges, the rest cosine-law."""
    rng = stream(seed, "sector-rays")
    sid = rng.integers(0, len(table), n)
    r = rng.random(n) * table.perimeters[sid]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)
    p0, v = _rays(table, sid, r, phi)

    n_tan = n // 3
    k = int(math.ceil(reach)) + 1
    grid = [(dx, dy, j) for dx in range(-k, k + 1) for dy in range(-k, k + 1)
            for j in range(len(table))]
    pick = rng.integers(0, len(grid), n_tan)
    dx, dy, j = (np.array([grid[i][c] for i in pick]) for c in range(3))
    cx = table.centers[j, 0] + dx - p0[:n_tan, 0]
    cy = table.centers[j, 1] + dy - p0[:n_tan, 1]
    dist = np.hypot(cx, cy)
    rho = table.radii[j]
    side = np.where(rng.random(n_tan) < 0.5, -1.0, 1.0)
    beta = side * np.arcsin(np.minimum(rho / dist, 1.0))
    ang = np.arctan2(cy, cx) + beta
    usable = (dist > rho) & ~((dx == 0) & (dy == 0) & (j == sid[:n_tan]))
    v[:n_tan][usable] = np.stack([np.cos(ang), np.sin(ang)], axis=1)[usable]

    n_edge = n // 6
    edges = -math.pi + 2.0 * math.pi * rng.integers(0, geometry.N_SECTORS, n_edge) / geometry.N_SECTORS
    v[n_tan:n_tan + n_edge] = np.stack([np.cos(edges), np.sin(edges)], axis=1)
    return p0, v, sid


def _four_disk_table():
    return geometry.validate_table([
        geometry.Scatterer((0.0, 0.0), 0.3),
        geometry.Scatterer((0.5, 0.5), 0.25),
        geometry.Scatterer((0.5, 0.0), 0.1),
        geometry.Scatterer((0.0, 0.5), 0.1),
    ])


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
        p0, v, sid = _tangent_and_random_rays(table, reach, 100_000, 5)
        t, hit, off, grazed = geometry.first_hit_batch(searched, p0, v, sid)
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
    t, hit, off, _ = geometry.first_hit_batch(_with_l_max(table, reach), p0, v, sid)
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
    _, _, _, grazed = geometry.first_hit_batch(low, p0, state.velocity, state.sid)
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
    # reachable_images keeps the loop's images, in image_lattice order
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
        geometry.first_hit_batch(bare, p0, v, np.array([0]))
    with pytest.raises(InvalidArgumentError, match="no horizon certificate"):
        bare.disk_rows((0.5, 0.0), 0.05)


def _old_sector_scan(table, p0, v, sid):
    """The sector scan with the full scan's b = 2*(f.v) arithmetic and its
    graze pre-screen |imp - rho| < 1e-9, kept as the oracle of the
    half-b scan.  Returns (t, image index, pre-screen flags)."""
    img_sid, _, cols = table.sector_candidates()
    key = geometry.sector_keys(sid, v)
    bt = np.full(len(sid), np.inf)
    bi = np.full(len(sid), -1)
    flags = np.zeros(len(sid), dtype=bool)
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
    p0, v, sid = _tangent_and_random_rays(table, reach, 100_000, 5)
    # turn the tangent third by up to 3e-9 rad, which spreads |imp - rho|
    # over the whole band the 1e-9 test flags
    n_tan = len(sid) // 3
    eps = stream(6, "screen").uniform(-3e-9, 3e-9, n_tan)
    vx, vy = v[:n_tan, 0].copy(), v[:n_tan, 1].copy()
    v[:n_tan, 0] = np.cos(eps) * vx - np.sin(eps) * vy
    v[:n_tan, 1] = np.sin(eps) * vx + np.cos(eps) * vy
    t, hit, _, flags = geometry._sector_scan(table, p0, v, sid)
    want_t, want_img, want_flags = _old_sector_scan(table, p0, v, sid)
    img_sid, _, _ = table.sector_candidates()
    assert t.tobytes() == want_t.tobytes()
    assert np.array_equal(hit, np.where(want_img >= 0, img_sid[want_img], -1))
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
    p0, v, sid = _tangent_and_random_rays(table, reach, 100_000, 5)
    t, _, _, maybe = geometry._sector_scan(table, p0, v, sid)
    got = geometry._graze_recheck(table, p0, v, t, maybe)
    want = _graze_recheck_oracle(table, p0, v, t, maybe, reach)
    assert got.tobytes() == want.tobytes()
    assert want.sum() > 500 and maybe.sum() > want.sum()
