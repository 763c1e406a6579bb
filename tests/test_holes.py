import math

import numpy as np
import pytest

from leakybilliards import billiard_map as bmap
from leakybilliards import holes, measures
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


def test_image_offsets_cover_observed_escapes(table, nu_states):
    # brute-force offsets over a big window agree with the pruned list
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    offsets = holes.hole_image_offsets(table, hole)
    wide = np.array([(float(i), float(j))
                     for i in range(-5, 6) for j in range(-5, 6)])
    sid, r, phi = nu_states
    n = 3000
    fwd = bmap.collide_batch(table, sid[:n], r[:n], phi[:n])
    a = holes.segment_crosses_disk(fwd.start, fwd.direction, fwd.flight_length,
                                   hole.center, hole.radius, offsets)
    b = holes.segment_crosses_disk(fwd.start, fwd.direction, fwd.flight_length,
                                   hole.center, hole.radius, wide)
    assert np.array_equal(a, b)
