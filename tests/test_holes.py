import dataclasses
import math

import numpy as np
import pytest

from leakybilliards import billiard_map as bmap
from leakybilliards import geometry, holes, open_dynamics
from leakybilliards.errors import (
    BadScattererIdError,
    HoleTooLargeError,
    HoleTouchesScattererError,
    InvalidArgumentError,
    ROutOfRangeError,
)
from leakybilliards.streams import stream
from test_geometry import bin_edge_departures


def _arc_contains(hole, sid, r):
    """Open-arc membership on arc lengths r, the oracle for
    holes.arc_contains_normal."""
    a, b = hole.arc
    on = np.asarray(sid) == hole.scatterer_id
    r = np.asarray(r)
    if a < b:
        return on & (r > a) & (r < b)
    return on & ((r > a) | (r < b))


def _segment_crosses_disk(start, direction, length, center, radius, offsets):
    """Whether unfolded segments pass strictly inside a disk image, over
    every integer translate in offsets (K,2): the full-offset test that
    holes.flight_crosses_hole replaced, kept as its oracle."""
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


def _rays(table, sid, r, phi):
    """Launch points and unit directions of boundary states (sid, r, phi)."""
    state = bmap.state_from_phase(table, sid, r, phi)
    return geometry.launch_points(table, state.sid, state.normal), state.velocity


def test_arc_membership_plain_and_wrapped(table):
    plain = holes.type_i_hole(table, 0, 0.3, 0.5)
    assert _arc_contains(plain, [0], [0.4])[0]
    assert not _arc_contains(plain, [0], [0.3])[0]  # open arc
    assert not _arc_contains(plain, [0], [0.5])[0]
    assert not _arc_contains(plain, [1], [0.4])[0]

    perim = table.perimeters[0]
    wrapped = holes.type_i_hole(table, 0, perim - 0.1, 0.1)
    assert math.isclose(wrapped.arc_length(table), 0.2, rel_tol=1e-12)
    assert _arc_contains(wrapped, [0], [0.05])[0]
    assert _arc_contains(wrapped, [0], [perim - 0.05])[0]
    assert not _arc_contains(wrapped, [0], [1.0])[0]


@pytest.mark.parametrize("sid, a, b", [
    (0, 0.3, 0.5),          # plain
    (0, 2.4, 0.1),          # wraps through r = 0
    (1, 0.2, 1.1),          # longer than half the perimeter
    (0, 2.0, 1.6),          # longer than half, and wrapping
])
def test_arc_normal_test_matches_arc_contains(table, sid, a, b):
    # the cross-product test on boundary normals against the r test,
    # away from rounding at the endpoints
    hole = holes.type_i_hole(table, sid, a, b)
    rng = stream(31, "arc-normals", sid)
    n = 200_000
    ids = rng.integers(0, len(table), n)
    r = rng.random(n) * table.perimeters[ids]
    # crowd the endpoints: a third of the points within 1e-9 of one
    a, b = hole.arc
    k = n // 3
    ids[:k] = sid
    r[:k] = np.where(rng.random(k) < 0.5, a, b) + rng.uniform(-1e-9, 1e-9, k)
    r[:k] = np.mod(r[:k], table.perimeters[sid])
    psi = r / table.radii[ids]
    normal = np.stack([np.cos(psi), np.sin(psi)], axis=1)
    got = holes.arc_contains_normal(hole, table, ids, normal)
    want = _arc_contains(hole, ids, r)
    perim = table.perimeters[sid]
    gap = np.minimum.reduce([np.abs(r - a), np.abs(r - b),
                             perim - np.abs(r - a), perim - np.abs(r - b)])
    far = (ids != sid) | (gap > 1e-12)
    assert np.array_equal(got[far], want[far])
    assert want.sum() > n // 10 and (~want[ids == sid]).sum() > n // 10
    assert np.sum(far[:k]) > 0.99 * k


def test_type_i_full_angular_fiber(table):
    # a Type I hole is an arc times the whole angle range
    hole = holes.type_i_hole(table, 0, 0.3, 0.5)
    phi = [-1.5, 0.0, 1.5] * 2
    state = bmap.state_from_phase(table, [0] * 6, [0.4] * 3 + [0.6] * 3, phi)
    member, cens = holes.state_in_hole(table, hole, state)
    assert member.tolist() == [True] * 3 + [False] * 3
    assert not cens.any()


def test_type_ii_membership_is_backward_crossing(table, nu_states):
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    sid, r, phi = nu_states
    n = 4000
    fwd = bmap.collide_batch(table, sid[:n], r[:n], phi[:n])
    ok = ~fwd.censored
    esc = holes.arrival_escape_mask(table, hole, fwd)
    member, cens = holes.state_in_hole(table, hole, fwd.arrivals().take(np.flatnonzero(ok)))
    # the arrival state is in the hole iff the flight that produced it
    # crossed the disk
    assert np.array_equal(member & ~cens, esc[ok] & ~cens)
    assert esc.sum() > 10


def test_grazing_flight_does_not_escape(table):
    # the flight from (0.4, 0) on scatterer 0 along y = 0 to the image at
    # (1, 0) grazes a disk tangent to that line: strict crossing means no
    # escape
    flight = bmap.collide_cartesian(table, np.array([0]), np.array([[1.0, 0.0]]),
                                    np.array([[1.0, 0.0]]))
    assert flight.start.tolist() == [[0.4, 0.0]] and not flight.censored[0]
    assert math.isclose(flight.flight_length[0], 0.2)
    hole = holes.HoleSpec(kind="II", center=(0.5, 0.1), radius=0.1)
    assert not holes.flight_crosses_hole(table, hole, flight)[0]
    inside = holes.HoleSpec(kind="II", center=(0.5, 0.09), radius=0.1)
    assert holes.flight_crosses_hole(table, inside, flight)[0]


def test_pre_escape_set_is_hole_pullback(table, nu_states):
    # x escapes on the next step exactly when f(x) is in the hole
    sid, r, phi = nu_states
    n = 2000
    fwd = bmap.collide_batch(table, sid[:n], r[:n], phi[:n])
    # a tangential departure has no decidable next flight
    tangent = bmap.collide_batch(table, [0], [0.1], [math.pi / 2])
    assert tangent.censored[0]
    for hole in (
        holes.type_i_hole(table, 0, 0.3, 0.5),
        holes.type_ii_hole(table, (0.5, 0.0), 0.05),
    ):
        pre = holes.arrival_escape_mask(table, hole, fwd)
        post, undecided = holes.state_in_hole(table, hole, fwd.arrivals())
        ok = ~(fwd.censored | undecided)
        assert ok.sum() > 0.99 * n
        assert np.array_equal(pre[ok], post[ok])
        assert pre[ok].sum() > 50
        assert not holes.arrival_escape_mask(table, hole, tangent)[0]


def test_hole_family_boundary_anchor(table):
    hole = holes.hole_family(table, (0, 0.3), 0.05, kind="I")
    assert hole.kind == "I"
    assert math.isclose(hole.arc_length(table), 0.1, rel_tol=1e-12)
    a, b = hole.arc
    assert math.isclose(a, 0.25, abs_tol=1e-12)
    assert math.isclose(b, 0.35, abs_tol=1e-12)

    shifted = holes.hole_family(table, (0, 0.3), 0.05, offset=0.02, kind="I")
    assert math.isclose(shifted.arc_length(table), 0.06, rel_tol=1e-12)
    assert math.isclose(shifted.arc[0], 0.29, abs_tol=1e-12)


def test_hole_family_point_anchor(table):
    hole = holes.hole_family(table, (0.5, 0.0), 0.05, kind="II")
    assert hole.kind == "II"
    assert hole.center == (0.5, 0.0)
    assert hole.radius == 0.05
    shifted = holes.hole_family(table, (0.5, 0.0), 0.05, offset=-0.01, kind="II")
    assert hole.radius > shifted.radius


def test_hole_family_nests(table):
    # smaller h gives an arc strictly inside the bigger one
    big = holes.hole_family(table, (0, 0.3), 0.08, kind="I")
    small = holes.hole_family(table, (0, 0.3), 0.02, kind="I")
    rs = np.linspace(small.arc[0] + 1e-9, small.arc[1] - 1e-9, 50)
    assert _arc_contains(small, np.zeros(50, int), rs).all()
    assert _arc_contains(big, np.zeros(50, int), rs).all()


def test_hole_family_rejects_bad_inputs(table):
    with pytest.raises(HoleTooLargeError):
        holes.hole_family(table, (0, 0.3), 0.05, offset=0.05, kind="I")
    with pytest.raises(InvalidArgumentError):
        holes.hole_family(table, (0, 0.3), -0.1, kind="I")
    with pytest.raises(ROutOfRangeError):
        holes.hole_family(table, (0, 99.0), 0.05, kind="I")
    with pytest.raises(HoleTooLargeError):
        # arc length 1.4 exceeds the small scatterer's perimeter
        holes.hole_family(table, (1, 0.3), 0.7, kind="I")
    # endpoints that wrap onto each other leave a degenerate arc; a full
    # turn up to rounding, (0.1, 0.1 + perimeter), once became an arc
    # 8e-17 long, and (300.3, 300.3 + perimeter) one 1.4e-14 long
    for a, b in ((0.0, 2 * math.pi * 0.4), (0.1, 2.6132741228718346),
                 (300.3, 302.81327412287186)):
        with pytest.raises(InvalidArgumentError, match="agree mod the perimeter"):
            holes.type_i_hole(table, 0, a, b)
    with pytest.raises(BadScattererIdError):
        holes.type_i_hole(table, 5, 0.1, 0.2)
    with pytest.raises(BadScattererIdError):
        holes.hole_family(table, (5, 0.3), 0.05, kind="I")
    # a half-width just under half the perimeter passes the family's own
    # size check, but its endpoints round a whole turn apart; the family
    # once returned that arc, a whole scatterer long
    perim = table.perimeters[0]
    with pytest.raises(InvalidArgumentError, match="agree mod the perimeter"):
        holes.hole_family(table, (0, 2.0), math.nextafter(perim / 2, 0), kind="I")


def test_type_ii_clearance(table):
    with pytest.raises(HoleTouchesScattererError):
        holes.type_ii_hole(table, (0.45, 0.0), 0.1)
    # clearance must also respect periodic images
    with pytest.raises(HoleTouchesScattererError):
        holes.type_ii_hole(table, (0.99, 0.0), 0.1)
    # a centre outside the unit cell is checked against the nearest image,
    # here the centre of a scatterer-0 image
    for center in ((2.0, 0.0), (3.0, 3.0)):
        with pytest.raises(HoleTouchesScattererError):
            holes.type_ii_hole(table, center, 0.05)
    # an image of a clear hole is clear, and keeps its centre as given
    assert holes.type_ii_hole(table, (1.5, -2.0), 0.05).center == (1.5, -2.0)


FOUR_DISK = [((0.0, 0.0), 0.3), ((0.5, 0.5), 0.25), ((0.5, 0.0), 0.1), ((0.0, 0.5), 0.1)]


def _four_disk_table():
    return geometry.validate_table([geometry.Scatterer(c, rho) for c, rho in FOUR_DISK])


def _hole_image_offsets_oracle(table, hole):
    """Integer translates of a Type II hole that a flight within the
    certified reach can cross, by a double loop: the oracle of the image
    list in Table.disk_rows."""
    reach = geometry.sector_reach(table.certificate.l_max)
    d0 = math.sqrt(0.5) + float(table.radii.max())
    kmax = int(math.ceil(reach + hole.radius + d0 + 1.0))
    cx, cy = hole.center
    offs = []
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            lb = math.hypot(cx + kx - 0.5, cy + ky - 0.5) - hole.radius - d0
            if lb <= reach:
                offs.append((float(kx), float(ky)))
    return np.array(offs)


@pytest.mark.parametrize("which, center, radius", [
    ("default", (0.5, 0.0), 0.05),
    ("default", (0.2, 0.7), 0.1),
    ("default", (1.5, -2.25), 0.02),
    ("four-disk", (0.25, 0.27), 0.04),
    ("four-disk", (-3.75, 0.73), 0.2),
])
def test_hole_image_offsets_match_loop_oracle(table, which, center, radius):
    # disk_rows indexes its images in list order, so a missing, extra or
    # reordered image changes the bytes of idx
    if which == "four-disk":
        table = _four_disk_table()
    offsets = _hole_image_offsets_oracle(table, holes.HoleSpec(
        kind="II", center=center, radius=radius))
    want = geometry.cell_rows(table, np.asarray(center) + offsets,
                              np.full(len(offsets), radius),
                              geometry.sector_reach(table.certificate.l_max))
    rows, counts = table.disk_rows(center, radius)
    for got, ref in zip(rows, want):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    assert np.array_equal(counts, np.isfinite(want.lb).sum(axis=0))


def _hole_flights(table, hole, n, seed, inverse):
    """n flights from collide_batch (or collide_inverse_batch): a third
    aimed exactly tangent to a hole image, the rest from cosine-law
    boundary states; then n // 10 from collide_cartesian (or
    collide_inverse_cartesian) along direction-sector edges and n // 10
    from bin_edge_departures, the inverse ones within rounding of
    these."""
    centers = np.asarray(hole.center) + _hole_image_offsets_oracle(table, hole)
    rng = stream(seed, "hole-flights", int(inverse))
    sid = rng.integers(0, len(table), n)
    r = rng.random(n) * table.perimeters[sid]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)

    n_tan = n // 3
    # depart from the side of the disk that faces the image
    img = centers[rng.integers(0, len(centers), n_tan)]
    c, rho = table.centers[sid[:n_tan]], table.radii[sid[:n_tan]]
    face = np.arctan2(img[:, 1] - c[:, 1], img[:, 0] - c[:, 0]) + rng.uniform(-1.0, 1.0, n_tan)
    r[:n_tan] = rho * np.mod(face, 2.0 * np.pi)
    p0, _ = _rays(table, sid[:n_tan], r[:n_tan], np.zeros(n_tan))
    cx, cy = img[:, 0] - p0[:, 0], img[:, 1] - p0[:, 1]
    dist = np.hypot(cx, cy)
    side = np.where(rng.random(n_tan) < 0.5, -1.0, 1.0)
    ang = np.arctan2(cy, cx) + side * np.arcsin(np.minimum(hole.radius / dist, 1.0))
    psi = r[:n_tan] / rho
    aim = np.mod(ang - psi + np.pi, 2.0 * np.pi) - np.pi
    usable = np.abs(aim) < 0.5 * np.pi - 1e-6
    phi[:n_tan][usable] = aim[usable]

    if inverse:
        flights = bmap.collide_inverse_batch(table, sid, r, -phi)
    else:
        flights = bmap.collide_batch(table, sid, r, phi)

    m = n // 10
    e_sid = rng.integers(0, len(table), 2 * m)
    edge = -math.pi + 2.0 * math.pi * rng.integers(0, geometry.N_DIR + 1, m) / geometry.N_DIR
    psi = edge + rng.uniform(-1.5, 1.5, m)
    normal, v = bin_edge_departures(rng, m)
    normal = np.concatenate([np.stack([np.cos(psi), np.sin(psi)], axis=1), normal])
    v = np.concatenate([np.stack([np.cos(edge), np.sin(edge)], axis=1), v])
    if inverse:
        edges = bmap.collide_inverse_cartesian(table, e_sid, normal, bmap.reverse(normal, v))
    else:
        edges = bmap.collide_cartesian(table, e_sid, normal, v)
    flights = bmap.CollisionBatch(*(np.concatenate(a) for a in zip(flights[:8], edges[:8])))
    cells = (geometry.N_DIR + 1) * (geometry.N_OFF + 1)
    assert np.array_equal(flights.row // cells, np.concatenate([sid, e_sid]))
    return flights, usable.sum()


@pytest.mark.parametrize("which, center, radius", [
    ("default", (0.5, 0.0), 0.05),
    ("default", (1.5, -2.0), 0.05),
    ("four-disk", (0.25, 0.27), 0.04),
])
def test_sector_hole_mask_is_bit_identical_to_full_offsets(table, which, center, radius):
    if which == "four-disk":
        table = _four_disk_table()
    hole = holes.type_ii_hole(table, center, radius)
    _, counts = table.disk_rows(hole.center, hole.radius)
    offsets = _hole_image_offsets_oracle(table, hole)
    # rows are short: that is the point of them
    assert counts.max() < len(offsets) // 2
    for inverse in (False, True):
        flights, n_aimed = _hole_flights(table, hole, 100_000, 7, inverse)
        assert n_aimed > 25_000
        # a flight without a hit is censored, and its entry means nothing
        hit = flights.flight_length <= table.certificate.l_max
        assert np.all(flights.censored[~hit])
        got = holes.flight_crosses_hole(table, hole, flights)
        want = _segment_crosses_disk(
            flights.start[hit], flights.direction[hit], flights.flight_length[hit],
            hole.center, hole.radius, offsets)
        assert got.dtype == want.dtype
        assert got[hit].tobytes() == want.tobytes()
        assert want.sum() > 2000


def test_image_offsets_cover_observed_escapes(table):
    # brute-force offsets over a big window agree with the pruned list
    # on the uncensored flights of the sector-mask batch
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    wide = np.array([(float(i), float(j)) for i in range(-5, 6) for j in range(-5, 6)])
    for inverse in (False, True):
        flights, _ = _hole_flights(table, hole, 100_000, 7, inverse)
        ok = ~flights.censored
        args = (flights.start[ok], flights.direction[ok], flights.flight_length[ok],
                hole.center, hole.radius)
        a = _segment_crosses_disk(*args, _hole_image_offsets_oracle(table, hole))
        b = _segment_crosses_disk(*args, wide)
        assert np.array_equal(a, b)
        assert a.sum() > 2000


def test_holes_sharing_a_center_get_their_own_masks(table):
    # the table caches rows per hole: the larger disk, asked for after
    # the smaller one on a fresh table, must not be tested on its rows,
    # which miss images that the larger disk's flights cross
    fresh = geometry.Table(table.scatterers)
    fresh.certificate = table.certificate
    small = holes.type_ii_hole(fresh, (0.5, 0.0), 0.005)
    big = holes.type_ii_hole(fresh, (0.5, 0.0), 0.08)
    flights, _ = _hole_flights(fresh, big, 30_000, 11, False)
    ok = ~flights.censored
    masks = []
    for hole in (small, big, small):
        got = holes.flight_crosses_hole(fresh, hole, flights)[ok]
        want = _segment_crosses_disk(
            flights.start[ok], flights.direction[ok], flights.flight_length[ok],
            hole.center, hole.radius, _hole_image_offsets_oracle(fresh, hole))
        assert np.array_equal(got, want)
        masks.append(got)
    assert np.array_equal(masks[0], masks[2])
    assert masks[0].sum() > 100 and masks[1].sum() > masks[0].sum()
    assert not np.any(masks[0] & ~masks[1])


@pytest.mark.parametrize("l_max", [1.4, 3.0])
def test_replaced_certificate_gets_rows_for_its_reach(table, nu_states, l_max):
    # the first-hit rows and the hole rows both follow the certificate
    sid, r, phi = (a[:20_000] for a in nu_states)
    p0, v = _rays(table, sid, r, phi)
    t = geometry.Table(table.scatterers)
    t.certificate = table.certificate
    _, first_counts = t.disk_rows((0.5, 0.0), 0.05)
    first_rows = t.sector_candidates()[2]
    t.certificate = dataclasses.replace(table.certificate, l_max=l_max)
    fresh = geometry.Table(table.scatterers)
    fresh.certificate = t.certificate
    (got, got_counts), (want, want_counts) = (
        t.disk_rows((0.5, 0.0), 0.05), fresh.disk_rows((0.5, 0.0), 0.05))
    assert not np.array_equal(got_counts, first_counts)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(got_counts, want_counts)
    rows = t.sector_candidates()[2]
    assert rows.lb.tobytes() != first_rows.lb.tobytes()
    for a, b in zip(rows, fresh.sector_candidates()[2]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    row = geometry.row_keys(sid, (p0 - table.centers[sid]) / table.radii[sid][:, None], v)
    for a, b in zip(geometry.first_hit_batch(t, p0, v, row),
                    geometry.first_hit_batch(fresh, p0, v, row)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_no_hole_holds_no_state(table, nu_states, monkeypatch):
    sid, r, phi = (a[:3000] for a in nu_states)
    state = bmap.state_from_phase(table, sid, r, phi)
    fwd = bmap.collide_cartesian(table, *state)

    def no_inverse(*args, **kwargs):
        raise AssertionError("an inverse collision was computed")

    monkeypatch.setattr(bmap, "collide_inverse_cartesian", no_inverse)
    for inside, undecided in (holes.state_in_hole(table, None, state),
                              open_dynamics.hole_membership(table, None, state, 2)):
        assert inside.dtype == undecided.dtype == bool
        assert inside.shape == undecided.shape == (3000,)
        assert not inside.any() and not undecided.any()
    esc = holes.arrival_escape_mask(table, None, fwd)
    assert esc.dtype == bool and esc.shape == (3000,) and not esc.any()
