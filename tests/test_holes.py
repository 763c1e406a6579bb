import math

import numpy as np
import pytest

from leakybilliards import billiard_map as bmap
from leakybilliards import geometry, holes
from leakybilliards.errors import (
    HoleTooLargeError,
    HoleTouchesScattererError,
    InvalidArgumentError,
    NearTangencyError,
    ROutOfRangeError,
)
from leakybilliards.streams import stream


def test_arc_membership_plain_and_wrapped(table):
    plain = holes.type_i_hole(table, 0, 0.3, 0.5)
    assert holes.arc_contains(plain, table, [0], [0.4])[0]
    assert not holes.arc_contains(plain, table, [0], [0.3])[0]  # open arc
    assert not holes.arc_contains(plain, table, [0], [0.5])[0]
    assert not holes.arc_contains(plain, table, [1], [0.4])[0]

    perim = table.perimeters[0]
    wrapped = holes.type_i_hole(table, 0, perim - 0.1, 0.1)
    assert math.isclose(wrapped.arc_length(table), 0.2, rel_tol=1e-12)
    assert holes.arc_contains(wrapped, table, [0], [0.05])[0]
    assert holes.arc_contains(wrapped, table, [0], [perim - 0.05])[0]
    assert not holes.arc_contains(wrapped, table, [0], [1.0])[0]


def test_type_i_full_angular_fiber(table):
    # a Type I hole is an arc times the whole angle range
    hole = holes.type_i_hole(table, 0, 0.3, 0.5)
    for phi in (-1.5, 0.0, 1.5):
        assert holes.in_hole(table, hole, bmap.PhasePoint(0, 0.4, phi))
        assert not holes.in_hole(table, hole, bmap.PhasePoint(0, 0.6, phi))


def test_type_ii_membership_is_backward_crossing(table, nu_states):
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    sid, r, phi = nu_states
    n = 4000
    fwd = bmap.collide_batch(table, sid[:n], r[:n], phi[:n])
    ok = ~fwd.censored
    esc = holes.arrival_escape_mask(table, hole, fwd)
    member, cens = holes.state_in_hole_batch(
        table, hole, fwd.scatterer_id[ok], fwd.r[ok], fwd.phi[ok]
    )
    # the arrival state is in the hole iff the flight that produced it
    # crossed the disk
    assert np.array_equal(member & ~cens, esc[ok] & ~cens)
    assert esc.sum() > 10


def test_grazing_flight_does_not_escape(table):
    # flight along y = 0 grazes a disk tangent to that line: strict
    # crossing means no escape
    hole = holes.type_ii_hole(table, (0.5, 0.1), 0.1, check_clearance=False)
    start = np.array([[0.4, 0.0]])
    direction = np.array([[1.0, 0.0]])
    assert not holes.segment_crosses_disk(
        start, direction, np.array([0.2]), hole.center, hole.radius,
        np.array([[0.0, 0.0]]),
    )[0]
    inside = holes.type_ii_hole(table, (0.5, 0.09), 0.1, check_clearance=False)
    assert holes.segment_crosses_disk(
        start, direction, np.array([0.2]), inside.center, inside.radius,
        np.array([[0.0, 0.0]]),
    )[0]


def test_pre_escape_set_is_hole_pullback(table, nu_states):
    # x escapes on the next step exactly when f(x) is in the hole
    sid, r, phi = nu_states
    for hole in (
        holes.type_i_hole(table, 0, 0.3, 0.5),
        holes.type_ii_hole(table, (0.5, 0.0), 0.05),
    ):
        checked = 0
        i = 0
        while checked < 200:
            x = bmap.PhasePoint(int(sid[i]), float(r[i]), float(phi[i]))
            i += 1
            try:
                y, _ = bmap.collide(table, x)
                pre = holes.in_B_sigma(table, hole, x)
                post = holes.in_hole(table, hole, y)
            except Exception:
                continue
            assert pre == post
            checked += 1
        # a tangential departure has no decidable next flight
        with pytest.raises(NearTangencyError):
            holes.in_B_sigma(table, hole, bmap.PhasePoint(0, 0.1, math.pi / 2))


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
    assert holes.arc_contains(small, table, np.zeros(50, int), rs).all()
    assert holes.arc_contains(big, table, np.zeros(50, int), rs).all()


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
    with pytest.raises(InvalidArgumentError):
        # endpoints that wrap onto each other leave a degenerate arc
        holes.type_i_hole(table, 0, 0.0, 2 * math.pi * 0.4)


def test_type_ii_clearance(table):
    with pytest.raises(HoleTouchesScattererError):
        holes.type_ii_hole(table, (0.45, 0.0), 0.1)
    # same disk allowed when the check is off
    holes.type_ii_hole(table, (0.45, 0.0), 0.1, check_clearance=False)
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
    """The double loop hole_image_offsets replaced, kept as its oracle."""
    reach = table.certificate.l_max
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
    if which == "four-disk":
        table = _four_disk_table()
    hole = holes.type_ii_hole(table, center, radius, check_clearance=False)
    got = holes.hole_image_offsets(table, hole)
    want = _hole_image_offsets_oracle(table, hole)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _hole_flights(table, hole, images, n, seed, inverse):
    """n flights from collide_batch (or collide_inverse_batch): a third
    aimed exactly tangent to a hole image, a sixth stretched past the
    rows' reach, the rest from cosine-law boundary states."""
    rng = stream(seed, "hole-flights", int(inverse))
    sid = rng.integers(0, len(table), n)
    r = rng.random(n) * table.perimeters[sid]
    phi = np.arcsin(2.0 * rng.random(n) - 1.0)

    n_tan = n // 3
    # depart from the side of the disk that faces the image
    img = images.centers[rng.integers(0, len(images.centers), n_tan)]
    c, rho = table.centers[sid[:n_tan]], table.radii[sid[:n_tan]]
    face = np.arctan2(img[:, 1] - c[:, 1], img[:, 0] - c[:, 0]) + rng.uniform(-1.0, 1.0, n_tan)
    r[:n_tan] = rho * np.mod(face, 2.0 * np.pi)
    p0, _ = geometry.rays_from_boundary(table, sid[:n_tan], r[:n_tan], np.zeros(n_tan))
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
    assert np.array_equal(flights.departure_id, sid)
    t = flights.flight_length.copy()
    far = slice(n_tan, n_tan + n // 6)
    t[far] = images.reach * (1.0 + 2.0 * rng.random(n // 6))
    return flights, flights._replace(flight_length=t), usable.sum()


@pytest.mark.parametrize("which, center, radius", [
    ("default", (0.5, 0.0), 0.05),
    ("default", (1.5, -2.0), 0.05),
    ("four-disk", (0.25, 0.27), 0.04),
])
def test_sector_hole_mask_is_bit_identical_to_full_offsets(table, which, center, radius):
    if which == "four-disk":
        table = _four_disk_table()
    hole = holes.type_ii_hole(table, center, radius)
    images = holes.escape_offsets(table, hole)
    # rows are short: that is the point of them
    assert images.counts.max() < len(images.offsets) // 2
    for inverse in (False, True):
        real, stretched, n_aimed = _hole_flights(table, hole, images, 100_000, 7, inverse)
        assert n_aimed > 25_000
        for flights in (real, stretched):
            got = holes.flight_crosses_hole(hole, images, flights)
            want = holes.segment_crosses_disk(
                flights.start, flights.direction, flights.flight_length,
                hole.center, hole.radius, images.offsets)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert want.sum() > 2000
        assert np.sum(~(stretched.flight_length <= images.reach)) >= 100_000 // 6


def test_image_offsets_cover_observed_escapes(table):
    # brute-force offsets over a big window agree with the pruned list
    # on the uncensored flights of the sector-mask batch
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    images = holes.escape_offsets(table, hole)
    wide = np.array([(float(i), float(j)) for i in range(-5, 6) for j in range(-5, 6)])
    for inverse in (False, True):
        flights, _, _ = _hole_flights(table, hole, images, 100_000, 7, inverse)
        ok = ~flights.censored
        args = (flights.start[ok], flights.direction[ok], flights.flight_length[ok],
                hole.center, hole.radius)
        a = holes.segment_crosses_disk(*args, images.offsets)
        b = holes.segment_crosses_disk(*args, wide)
        assert np.array_equal(a, b)
        assert a.sum() > 2000
