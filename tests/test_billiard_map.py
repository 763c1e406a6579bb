import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakybilliards import billiard_map as bmap
from leakybilliards import geometry, measures
from leakybilliards.errors import NearTangencyError
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


def test_cartesian_step_matches_collide_batch(table, nu_states):
    # a state built from (r, phi) with np.cos/np.sin takes the same step
    # as collide_batch: same arrival scatterer, r and censoring bits, and
    # phi read off the reflected velocity within rounding
    sid, r, phi = nu_states
    want = bmap.collide_batch(table, sid, r, phi)
    n = np.stack([np.cos(r / table.radii[sid]), np.sin(r / table.radii[sid])], axis=1)
    v = np.stack([np.cos(phi) * n[:, 0] - np.sin(phi) * n[:, 1],
                  np.cos(phi) * n[:, 1] + np.sin(phi) * n[:, 0]], axis=1)
    got = bmap.collide_cartesian(table, sid, n, v)
    assert got.censored.tobytes() == want.censored.tobytes()
    assert got.scatterer_id.tobytes() == want.scatterer_id.tobytes()
    ok = ~got.censored
    assert ok.mean() > 0.999
    r1 = bmap.arc_coordinate(table, got.scatterer_id, got.normal)
    assert r1[ok].tobytes() == want.r[ok].tobytes()
    _, r2, phi1 = bmap.phase_of(table, got.arrivals())
    assert r2.tobytes() == r1.tobytes()
    assert np.abs(phi1[ok] - want.phi[ok]).max() < 1e-12
    # the inverse map undoes the step
    back = bmap.collide_inverse_cartesian(table, *got.arrivals().take(np.flatnonzero(ok)))
    keep = ~back.censored
    assert np.array_equal(back.scatterer_id[keep], sid[ok][keep])
    assert np.abs(back.normal[keep] - n[ok][keep]).max() < 1e-9
    assert np.abs(back.velocity[keep] - v[ok][keep]).max() < 1e-9


def _collide_by_angles(table, sid, r, phi):
    """The collision map computed from angles, as before states were
    carried as normals and velocities: launch from cos/sin of r/rho and
    phi, censor the departure on |phi|, read the arrival off arctan2.
    Returns (sid1, r1, phi1, flight_length, censored)."""
    psi = r / table.radii[sid]
    nx, ny = np.cos(psi), np.sin(psi)
    p0 = np.stack([table.centers[sid, 0] + table.radii[sid] * nx,
                   table.centers[sid, 1] + table.radii[sid] * ny], axis=1)
    cphi, sphi = np.cos(phi), np.sin(phi)
    v = np.stack([cphi * nx - sphi * ny, cphi * ny + sphi * nx], axis=1)
    cens = np.abs(phi) > (math.pi / 2 - bmap.TANGENCY_GUARD)
    t, hit, off, grazed = geometry.first_hit_batch(table, p0, v, skip_sid=sid)
    nohit = hit < 0
    cens = cens | grazed | nohit
    sid1 = np.where(nohit, sid, hit)
    dx = p0[:, 0] + t * v[:, 0] - (table.centers[sid1, 0] + off[:, 0])
    dy = p0[:, 1] + t * v[:, 1] - (table.centers[sid1, 1] + off[:, 1])
    nrm = np.sqrt(dx * dx + dy * dy)
    nrm[nohit] = 1.0
    dx /= nrm
    dy /= nrm
    psi1 = np.mod(np.arctan2(dy, dx), 2 * math.pi)
    r1 = table.radii[sid1] * psi1
    r1[r1 >= table.perimeters[sid1]] = 0.0
    r1 = np.where(nohit, r, r1)
    cos1 = -(v[:, 0] * dx + v[:, 1] * dy)
    sin1 = -v[:, 0] * dy + v[:, 1] * dx
    phi1 = np.where(nohit, phi, np.arctan2(sin1, np.maximum(cos1, 0.0)))
    cens |= cos1 < bmap._COS_GUARD
    return sid1, r1, phi1, t, cens


def test_phase_wrappers_match_the_angle_formulas(table, nu_states):
    # collide_batch and collide_inverse_batch go through the Cartesian
    # kernel, yet give the bits of the angle formulas, including the
    # departure guard on states within a few ulp of |phi| = pi/2 - guard
    sid, r, phi = nu_states
    rng = stream(29, "guard")
    m = 4000
    edge = math.pi / 2 - bmap.TANGENCY_GUARD
    near = edge + np.concatenate([(rng.random(m // 2) - 0.5) * 1e-9,
                                  rng.integers(-8, 9, m // 2) * 2.0 ** -52])
    near *= np.where(rng.random(m) < 0.5, -1.0, 1.0)
    g_sid = rng.integers(0, len(table), m)
    g_r = rng.random(m) * table.perimeters[g_sid]
    sid, r, phi = (np.concatenate(pair) for pair in ((sid, g_sid), (r, g_r), (phi, near)))
    fwd = bmap.collide_batch(table, sid, r, phi)
    back = bmap.collide_inverse_batch(table, sid, r, phi)
    want_back = list(_collide_by_angles(table, sid, r, -phi))
    want_back[2] = -want_back[2]
    for got, want in ((fwd, _collide_by_angles(table, sid, r, phi)), (back, want_back)):
        for field, w in zip(("scatterer_id", "r", "phi", "flight_length", "censored"), want):
            assert getattr(got, field).tobytes() == w.tobytes(), field
    guarded = np.abs(phi[-m:]) > edge
    assert 0.3 < guarded.mean() < 0.7
    assert np.array_equal(fwd.censored[-m:][guarded], guarded[guarded])


def test_long_closed_run_keeps_unit_vectors(table):
    # 1000 closed steps: no drift off the unit circle, and every
    # survivor leaves its scatterer at least at the tangency guard
    state = measures.sample_nu_state(table, 2000, stream(23, "unit"))
    worst = 0.0
    for _ in range(1000):
        batch = bmap.collide_cartesian(table, *state)
        state = batch.arrivals().take(np.flatnonzero(~batch.censored))
        for u in (state.normal, state.velocity):
            worst = max(worst, np.abs(np.hypot(u[:, 0], u[:, 1]) - 1.0).max())
        cos = state.velocity[:, 0] * state.normal[:, 0] + state.velocity[:, 1] * state.normal[:, 1]
        assert np.all(cos >= bmap._COS_GUARD)
    assert len(state.sid) > 1900
    assert worst < 1e-13
