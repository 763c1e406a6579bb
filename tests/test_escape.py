import math

import numpy as np
import pytest

from leakybilliards import billiard_map as bmap
from leakybilliards import escape, holes, measures, open_dynamics
from leakybilliards.errors import (
    AllEscapedError,
    InvalidArgumentError,
    StarvedSampleError,
)
from leakybilliards.streams import stream

NU = measures.DensitySpec()


def test_fit_recovers_exact_geometric_decay():
    theta = 0.9
    survivors = 1000.0 * theta ** np.arange(31)
    est = escape.fit_escape_rate(survivors, (5, 25), min_tail=0)
    assert math.isclose(est.log_slope, math.log(theta), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(est.theta_hat, theta, rel_tol=0, abs_tol=1e-12)
    assert est.stderr_ols < 1e-8
    assert est.n_points == 21
    assert est.window == (5, 25)


def test_fit_closed_system_is_flat():
    survivors = np.full(21, 500.0)
    est = escape.fit_escape_rate(survivors, (2, 18), min_tail=0)
    assert est.log_slope == 0.0
    assert est.theta_hat == 1.0
    assert est.stderr == 0.0  # no loss means no binomial noise either


def test_censor_correction_hand_case():
    survivors = [100, 80, 60]
    censored = [0, 10, 10]
    eff = escape.censor_corrected_counts(survivors, censored)
    # step 1 drops 10 from the at-risk set before the ratio
    assert math.isclose(eff[0], 100.0)
    assert math.isclose(eff[1], 100.0 * 80.0 / 90.0)
    assert math.isclose(eff[2], eff[1] * 60.0 / 80.0)
    # no censoring reproduces the raw curve
    raw = escape.censor_corrected_counts(survivors)
    assert np.allclose(raw, survivors)


def test_censoring_does_not_bias_theta():
    # censoring 1 percent per step must not masquerade as escape
    theta = 0.95
    n = 10000.0
    surv, cens = [n], [0.0]
    for k in range(1, 31):
        c_new = 0.01 * surv[-1]
        surv.append((surv[-1] - c_new) * theta)
        cens.append(cens[-1] + c_new)
    est = escape.fit_escape_rate(surv, (5, 25), censored=cens, min_tail=0)
    assert math.isclose(est.theta_hat, theta, rel_tol=1e-10)
    naive = escape.fit_escape_rate(surv, (5, 25), min_tail=0)
    assert naive.theta_hat < theta - 0.005


def test_fit_window_validation():
    survivors = np.full(21, 500.0)
    with pytest.raises(InvalidArgumentError):
        escape.fit_escape_rate(survivors, (10, 5))
    with pytest.raises(InvalidArgumentError):
        escape.fit_escape_rate(survivors, (0, 21))
    with pytest.raises(InvalidArgumentError):
        escape.fit_escape_rate(survivors, (5, 6))


@pytest.mark.parametrize("window,n_max", [((5, 6), 20), ((25, 40), 30)])
def test_bad_window_fails_before_any_particle_is_drawn(table, monkeypatch,
                                                       window, n_max):
    def no_draw(*args, **kwargs):
        raise AssertionError("particles were drawn")

    monkeypatch.setattr(measures, "sample_initial", no_draw)
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    with pytest.raises(InvalidArgumentError, match="window"):
        escape.estimate_escape_rate(table, hole, NU, 1000, n_max, window, 1)
    with pytest.raises(InvalidArgumentError, match="window"):
        escape.fleming_viot_evolve(table, hole, NU, 1000, n_max, window, 1)
    with pytest.raises(InvalidArgumentError, match="window"):
        escape.small_hole_sweep(table, (0, 0.3), [0.08], NU, 1000, n_max,
                                window, 10, 8, 8, 1, kind="I")


def test_fit_failure_modes():
    dead = np.array([100.0, 50.0, 10.0, 0.0, 0.0])
    with pytest.raises(AllEscapedError):
        escape.fit_escape_rate(dead, (0, 4), min_tail=0)
    thin = 1000.0 * 0.5 ** np.arange(11)
    with pytest.raises(StarvedSampleError):
        escape.fit_escape_rate(thin, (0, 10), min_tail=100)


def test_estimate_on_real_hole(table):
    hole_args = dict(n_particles=20_000, n_max=30, window=(5, 25),
                     master_seed=2024)
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    est, res = escape.estimate_escape_rate(table, hole, NU, **hole_args)
    # arc mass 0.3 / 3.77 per step gives theta around 0.92
    assert 0.85 < est.theta_hat < 0.98
    assert est.stderr < 0.01
    assert res.survivors[-1] == est.survivors_at_end or res.n_steps != 25
    # deterministic reruns
    est2, _ = escape.estimate_escape_rate(table, hole, NU, **hole_args)
    assert est2.theta_hat == est.theta_hat


def test_fleming_viot_matches_direct(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    est_d, _ = escape.estimate_escape_rate(
        table, hole, NU, n_particles=40_000, n_max=40, window=(10, 35),
        master_seed=555,
    )
    fv = escape.fleming_viot_evolve(
        table, hole, NU, n_particles=40_000, n_steps=40, window=(10, 35),
        master_seed=556, capture=(0, 20),
    )
    est_f = fv.estimate
    tol = max(0.01, 5.0 * math.hypot(est_d.stderr, est_f.stderr))
    assert abs(est_f.theta_hat - est_d.theta_hat) < tol
    # constant population throughout
    assert len(fv.final_sid) == 40_000
    for k in (0, 20):
        assert len(fv.captures[k][0]) == 40_000
    # the corrected curve is the running product of the ratios
    assert np.allclose(fv.eff_counts, 40_000 * np.cumprod(fv.ratios))
    assert fv.n_cloned > 0


def test_fleming_viot_thread_counts_agree_exactly(table, monkeypatch):
    # 1024-state chunks send every step through the worker pool
    monkeypatch.setattr(open_dynamics, "CHUNK", 1024)
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    runs = [
        escape.fleming_viot_evolve(
            table, hole, NU, n_particles=5000, n_steps=12, window=(3, 12),
            master_seed=21, threads=t, capture=(6,),
        )
        for t in (1, 2)
    ]
    a, b = runs
    for field in ("eff_counts", "ratios", "final_sid", "final_r", "final_phi"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for x, y in zip(a.captures[6], b.captures[6]):
        assert np.array_equal(x, y)
    assert (a.n_cloned, a.n_censored) == (b.n_cloned, b.n_censored)


def test_survivor_distribution_runs(table):
    hole = holes.type_i_hole(table, 0, 0.25, 0.35)
    m, res = escape.survivor_distribution(
        table, hole, NU, n_particles=20_000, n_steps=10, r_bins=8,
        phi_bins=8, master_seed=99, min_survivors=1000,
    )
    assert abs(m.total_mass - 1.0) < 1e-9
    assert m.weights.shape == (2, 8, 8)
    with pytest.raises(StarvedSampleError):
        escape.survivor_distribution(
            table, hole, NU, n_particles=500, n_steps=10, r_bins=8,
            phi_bins=8, master_seed=99, min_survivors=1000,
        )


def test_survivor_distribution_checks_bins_before_evolving(table, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble was evolved")

    monkeypatch.setattr(open_dynamics, "evolve_ensemble", no_run)
    hole = holes.type_i_hole(table, 0, 0.25, 0.35)
    for r_bins, phi_bins in ((0, 8), (8, -1)):
        with pytest.raises(InvalidArgumentError, match="bin counts"):
            escape.survivor_distribution(
                table, hole, NU, n_particles=1000, n_steps=10, r_bins=r_bins,
                phi_bins=phi_bins, master_seed=99)


def test_sweep_structure_and_determinism(table):
    kw = dict(
        density=NU, n_particles=20_000, n_max=30, window=(5, 25),
        measure_step=10, r_bins=16, phi_bins=16, master_seed=42, kind="I",
    )
    rows = escape.small_hole_sweep(table, (0, 0.3), [0.08, 0.02], **kw)
    assert [row.h for row in rows] == [0.08, 0.02]
    # smaller hole leaks slower
    assert rows[1].theta_hat > rows[0].theta_hat
    for row in rows:
        assert 0.0 < row.theta_hat < 1.0
        assert row.survivors_at_step > 0
        assert row.noise_floor > 0
        assert np.isfinite(row.distance_to_nu)
    rows2 = escape.small_hole_sweep(table, (0, 0.3), [0.08, 0.02], **kw)
    assert rows2 == rows
    with pytest.raises(InvalidArgumentError):
        escape.small_hole_sweep(table, (0, 0.3), [], **kw)


def test_hole_image_mass_grows_with_horizon(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    m5, m20 = (
        escape.singularity_diagnostic(table, hole, k, 20_000, master_seed=7,
                                      n_backcheck=0)["fraction_entered"]
        for k in (5, 20)
    )
    assert 0.0 < m5 < m20 < 1.0


@pytest.mark.parametrize("kind", ["I", "II"])
def test_backward_visits_start_with_membership(table, kind):
    # with no backward step the visit count is the state's own membership
    hole = (holes.type_i_hole(table, 0, 0.2, 0.5) if kind == "I"
            else holes.type_ii_hole(table, (0.5, 0.0), 0.05))
    state = measures.sample_nu_state(table, 4000, stream(5, "visits"))
    member, undecided = holes.state_in_hole(table, hole, state)
    visits, cens = escape.backward_hole_visits(table, hole, state, 0)
    assert member.sum() > 50
    assert np.array_equal(visits, member.astype(np.int64))
    assert np.array_equal(cens, undecided)


def test_singularity_diagnostic_zero_survivor_mass(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    diag = escape.singularity_diagnostic(
        table, hole, 15, 20_000, master_seed=8, n_backcheck=500,
        k_backcheck=5,
    )
    assert diag["survivor_hole_mass"] == 0.0
    assert diag["backward_violations"] == 0
    assert diag["n_backchecked"] > 0
    assert 0.0 < diag["fraction_entered"] < 1.0


class _JitterBelowSeam:
    """Generator stand-in whose clone jitter is always -1e-20, so a clone
    of a state at r = 0 lands a hair below the seam."""

    def __init__(self, *_):
        self._rng = np.random.default_rng(0)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def uniform(self, low, high, size):
        return np.full(size, -1e-20)


def test_fleming_viot_clone_below_the_seam_wraps_to_zero(table, monkeypatch):
    # half the states sit at r = 0, the other half in the hole, so step 0
    # clones every r = 0 state with a jitter np.mod rounds to a full turn
    n = 64
    r0 = np.where(np.arange(n) < n // 2, 0.0, 0.75)

    def initial(table, density, n, rng):
        return bmap.state_from_phase(table, np.zeros(n, dtype=np.int64), r0, np.zeros(n))

    monkeypatch.setattr(escape, "stream", _JitterBelowSeam)
    monkeypatch.setattr(measures, "sample_initial", initial)
    hole = holes.type_i_hole(table, 0, 0.5, 1.0)
    fv = escape.fleming_viot_evolve(table, hole, NU, n_particles=n, n_steps=2,
                                    window=(0, 2), master_seed=1, capture=(0,))
    sid, r, _ = fv.captures[0]
    assert fv.n_cloned >= n // 2
    assert np.all(r < table.perimeters[sid])
    assert np.all(r[n // 2:] == 0.0)


class _FixedJitter(_JitterBelowSeam):
    """Generator stand-in whose clone jitters are 3e-6 in r and dphi in
    phi (clone_into draws the r jitter first)."""

    def __init__(self, dphi):
        super().__init__()
        self._dphi = dphi
        self._calls = 0

    def uniform(self, low, high, size):
        self._calls += 1
        return np.full(size, 3e-6 if self._calls % 2 else self._dphi)


@pytest.mark.parametrize("phi0, dphi, want", [
    (0.3, -2e-6, 0.3 - 2e-6),
    # turned past the tangency guard: capped on the cosine
    (math.pi / 2 - 1e-7, 2e-6, math.pi / 2 - 1e-9),
    (-math.pi / 2 + 1e-7, -2e-6, -math.pi / 2 + 1e-9),
])
def test_fleming_viot_clones_jitter_r_and_phi(table, monkeypatch, phi0, dphi, want):
    # half the states sit on r in [1.2, 2.2), outside the hole, and the
    # others clone from them: a clone moves by the r jitter along the
    # boundary and by the phi jitter in angle
    n = 64
    r0 = np.where(np.arange(n) < n // 2, 1.2 + 0.03 * np.arange(n), 0.75)

    def initial(table, density, n, rng):
        return bmap.state_from_phase(table, np.zeros(n, dtype=np.int64), r0, np.full(n, phi0))

    monkeypatch.setattr(escape, "stream", lambda *_: _FixedJitter(dphi))
    monkeypatch.setattr(measures, "sample_initial", initial)
    hole = holes.type_i_hole(table, 0, 0.5, 1.0)
    fv = escape.fleming_viot_evolve(table, hole, NU, n_particles=n, n_steps=2,
                                    window=(0, 2), master_seed=1, capture=(0,))
    sid, r, phi = fv.captures[0]
    assert np.all(sid == 0)
    assert np.abs(r[:n // 2] - r0[:n // 2]).max() < 1e-12
    # each clone sits 3e-6 past one of the sources
    gap = np.abs(r[n // 2:, None] - 3e-6 - r0[None, :n // 2]).min(axis=1)
    assert gap.max() < 1e-12
    assert np.abs(phi[n // 2:] - want).max() < 1e-12
