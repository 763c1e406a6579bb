import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakybilliards import billiard_map as bmap
from leakybilliards import geometry, measures
from leakybilliards.errors import DifferentScatterersError, NearTangencyError
from leakybilliards.streams import stream


def test_period_two_orbit(table):
    # small disk facing its own periodic image along the x axis: the
    # gap is 1 - 2*0.2 = 0.6 and the head-on orbit has period two
    x = bmap.PhasePoint(1, 0.0, 0.0)
    y, seg = bmap.collide(table, x)
    assert y.scatterer_id == 1
    assert math.isclose(seg.length, 0.6, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(y.r, math.pi * 0.2, rel_tol=0, abs_tol=1e-12)
    assert abs(y.phi) < 1e-12
    z, seg2 = bmap.collide(table, y)
    assert z.scatterer_id == 1
    assert math.isclose(seg2.length, 0.6, rel_tol=0, abs_tol=1e-12)
    assert abs(z.r - x.r) < 1e-12 and abs(z.phi) < 1e-12


def test_flight_polyline_wraps_once(table):
    # the period-two flight crosses the x = 1 seam exactly once
    _, seg = bmap.collide(table, bmap.PhasePoint(1, 0.0, 0.0))
    assert len(seg.polyline) == 2
    (a0, a1), (b0, b1) = seg.polyline
    assert math.isclose(a1[0], 1.0, abs_tol=1e-12)
    assert math.isclose(b0[0], 0.0, abs_tol=1e-12)


def test_inverse_roundtrip_batch(table, nu_states):
    sid, r, phi = nu_states
    fwd = bmap.collide_batch(table, sid, r, phi)
    ok = ~fwd.censored
    back = bmap.collide_inverse_batch(
        table, fwd.scatterer_id[ok], fwd.r[ok], fwd.phi[ok]
    )
    ok2 = ~back.censored
    assert ok.mean() > 0.999 and ok2.mean() > 0.999
    assert np.all(back.scatterer_id[ok2] == sid[ok][ok2])
    dr = np.abs(back.r[ok2] - r[ok][ok2])
    dr = np.minimum(dr, table.total_perimeter - dr)
    assert dr.max() < 1e-9
    assert np.abs(back.phi[ok2] - phi[ok][ok2]).max() < 1e-9


def test_time_reversal_conjugacy(table, nu_states):
    # I o f o I o f = identity, where I flips the angle sign
    sid, r, phi = nu_states
    n = 2000
    sid, r, phi = sid[:n], r[:n], phi[:n]
    a = bmap.collide_batch(table, sid, r, phi)
    ok = ~a.censored
    b = bmap.collide_batch(table, a.scatterer_id[ok], a.r[ok], -a.phi[ok])
    ok2 = ~b.censored
    assert np.all(b.scatterer_id[ok2] == sid[ok][ok2])
    assert np.abs(-b.phi[ok2] - phi[ok][ok2]).max() < 1e-9


def test_jacobian_determinant_identity(table, nu_states):
    # det Df = cos(phi_in) / cos(phi_out), exactly, from the closed form
    sid, r, phi = nu_states
    n = 3000
    batch = bmap.collide_batch(table, sid[:n], r[:n], phi[:n])
    ok = ~batch.censored
    rel = []
    for i in np.flatnonzero(ok)[:1000]:
        x = bmap.PhasePoint(int(sid[i]), float(r[i]), float(phi[i]))
        J = bmap.collision_jacobian(table, x)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        want = math.cos(phi[i]) / math.cos(batch.phi[i])
        rel.append(abs(det - want) / abs(want))
    assert max(rel) < 1e-10


def test_jacobian_matches_finite_differences(table):
    # central differences on (r, phi) against the closed-form matrix
    pts = [(0, 0.3, 0.2), (0, 1.7, -0.5), (1, 0.4, 0.9), (1, 1.0, -1.1)]
    for sid, r, phi in pts:
        x = bmap.PhasePoint(sid, r, phi)
        J = bmap.collision_jacobian(table, x)
        eps = 1e-6
        fd = np.empty((2, 2))
        for col, (dr, dphi) in enumerate([(eps, 0.0), (0.0, eps)]):
            yp, _ = bmap.collide(table, bmap.PhasePoint(sid, r + dr, phi + dphi))
            ym, _ = bmap.collide(table, bmap.PhasePoint(sid, r - dr, phi - dphi))
            assert yp.scatterer_id == ym.scatterer_id
            fd[0, col] = (yp.r - ym.r) / (2 * eps)
            fd[1, col] = (yp.phi - ym.phi) / (2 * eps)
        assert np.abs(J - fd).max() < 1e-5


def test_tangential_launch_censored(table):
    batch = bmap.collide_batch(
        table, np.array([0]), np.array([0.5]),
        np.array([math.pi / 2 - 1e-10]),
    )
    assert bool(batch.censored[0])
    with pytest.raises(NearTangencyError):
        bmap.collide(table, bmap.PhasePoint(0, 0.5, math.pi / 2 - 1e-10))


def test_p_distance_constant_angle(table):
    # equal angles reduce the integral to |dr| * cos(phi)
    a = bmap.PhasePoint(0, 0.2, math.pi / 3)
    b = bmap.PhasePoint(0, 0.3, math.pi / 3)
    assert math.isclose(bmap.p_distance(table, a, b), 0.05, rel_tol=1e-12)


def test_p_distance_closed_form(table):
    a = bmap.PhasePoint(0, 0.2, 0.1)
    b = bmap.PhasePoint(0, 0.45, 0.7)
    want = abs(0.25 * (math.sin(0.7) - math.sin(0.1)) / 0.6)
    assert math.isclose(bmap.p_distance(table, a, b), want, rel_tol=1e-12)


def test_p_distance_wraps_shortest_way(table):
    perim = table.perimeters[0]
    a = bmap.PhasePoint(0, 0.01, 0.0)
    b = bmap.PhasePoint(0, perim - 0.01, 0.0)
    assert math.isclose(bmap.p_distance(table, a, b), 0.02, rel_tol=1e-9)


def test_p_distance_needs_one_scatterer(table):
    with pytest.raises(DifferentScatterersError):
        bmap.p_distance(table, bmap.PhasePoint(0, 0.1, 0.0),
                        bmap.PhasePoint(1, 0.1, 0.0))


def test_scalar_matches_batch(table, nu_states):
    sid, r, phi = nu_states
    for i in range(20):
        batch = bmap.collide_batch(
            table, sid[i:i + 1], r[i:i + 1], phi[i:i + 1]
        )
        if batch.censored[0]:
            continue
        y, seg = bmap.collide(
            table, bmap.PhasePoint(int(sid[i]), float(r[i]), float(phi[i]))
        )
        assert y.scatterer_id == batch.scatterer_id[0]
        assert y.r == batch.r[0] and y.phi == batch.phi[0]
        assert seg.length == batch.flight_length[0]


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.0, 2 * math.pi * 0.4 - 1e-6),
    phi=st.floats(-1.5, 1.5),
)
def test_outgoing_angle_stays_in_range(r, phi):
    table = geometry.default_table()
    batch = bmap.collide_batch(table, [0], [r], [phi])
    if not batch.censored[0]:
        assert abs(batch.phi[0]) <= math.pi / 2
        assert 0.0 <= batch.r[0] < table.perimeters[batch.scatterer_id[0]]
        assert batch.flight_length[0] > 0


def test_arrival_a_hair_below_the_seam_wraps_to_zero(table):
    # the arrival angle is a tiny negative number, which np.mod rounds
    # up to a full turn: r would land on the perimeter itself
    y, _ = bmap.collide(table, bmap.PhasePoint(1, 0.31821418141060925, 0.28922339682412823))
    assert (y.scatterer_id, y.r) == (0, 0.0)
    bmap.collide(table, y)
    # flights rebuilt from the preimages of r = 0 states land at the seam
    rng = stream(17, "seam")
    n = 20_000
    sid = rng.integers(0, len(table), n)
    phi = 0.99 * np.arcsin(2.0 * rng.random(n) - 1.0)
    back = bmap.collide_inverse_batch(table, sid, np.zeros(n), phi)
    ok = ~back.censored
    fwd = bmap.collide_batch(table, back.scatterer_id[ok], back.r[ok], back.phi[ok])
    assert np.all(fwd.r >= 0.0) and np.all(fwd.r < table.perimeters[fwd.scatterer_id])
    assert np.sum(fwd.r == 0.0) > n // 10
