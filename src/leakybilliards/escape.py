"""Escape-rate and limiting-measure estimators for leaky billiards.

The open system loses mass at an asymptotically geometric rate: the
number of survivors behaves like S_n ~ C theta^n.  The estimators here
fit log-survival against step index over a user window, with censored
trajectories removed from both numerator and denominator via a product
of per-step survival ratios, so near-tangential guard firings bias
neither the rate nor the measure.

Two estimators:

* direct: evolve one ensemble, fit the corrected counts;
* Fleming-Viot: keep the population constant by cloning a uniformly
  chosen survivor for every kill, accumulate the per-step survival
  ratios, and fit their running product.  The population histogram
  then approximates the limiting conditional measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import billiard_map as _bmap
from . import holes as _holes
from . import measures as _measures
from . import open_dynamics as _od
from .errors import (
    AllEscapedError,
    ExtinctionError,
    InvalidArgumentError,
    StarvedSampleError,
)
from .streams import stream

# survivors a fit needs at the end of its window
_MIN_TAIL = 100


@dataclass(frozen=True)
class EscapeEstimate:
    """Fitted per-step survival factor theta and its uncertainty.

    stderr combines the OLS slope error with binomial counting noise.
    The noise term treats the log-curve as an accumulation of
    independent per-step kill draws, so it tracks the run-to-run
    variability of the slope rather than the (much smaller) scatter of
    the points around one realized curve; stderr_ols and
    stderr_binomial expose the two ingredients.
    """

    theta_hat: float
    log_slope: float
    stderr: float
    stderr_ols: float
    stderr_binomial: float
    window: tuple[int, int]
    n_points: int
    survivors_at_end: float


def check_window(window, n_steps: int) -> tuple[int, int]:
    """The fit window (lo, hi) as ints; it must lie in the recorded
    steps 0..n_steps and hold at least 3 points."""
    lo, hi = int(window[0]), int(window[1])
    if not 0 <= lo < hi <= n_steps:
        raise InvalidArgumentError(
            f"window [{lo},{hi}] outside the recorded range [0,{n_steps}]"
        )
    if hi - lo < 2:
        raise InvalidArgumentError("window needs at least 3 points")
    return lo, hi


def check_sweep(h_list, n_max: int, window, measure_step: int) -> None:
    """The small-hole sweep's argument rules, which need no table: a
    nonempty h_list, measure_step in 1..n_max and check_window."""
    if not h_list:
        raise InvalidArgumentError("h_list must be nonempty")
    if not 0 < measure_step <= n_max:
        raise InvalidArgumentError("measure_step must lie in [1, n_max]")
    check_window(window, n_max)


def censor_corrected_counts(survivors, censored=None):
    """Effective survival curve with censored particles removed.

    survivors and censored are cumulative counts.  A particle censored
    during step k leaves the at-risk set of that step, so the corrected
    curve multiplies the ratios S_k / (S_{k-1} - newly_censored_k).
    Returns a float array of the same length, starting at survivors[0].
    """
    s = np.asarray(survivors, dtype=float)
    if np.any(s < 0) or len(s) == 0:
        raise InvalidArgumentError("survivor counts must be nonnegative")
    if censored is None:
        c_new = np.zeros(len(s))
    else:
        c = np.asarray(censored, dtype=float)
        if c.shape != s.shape:
            raise InvalidArgumentError("censored counts must match survivors")
        c_new = np.diff(c, prepend=c[0])
        c_new[0] = 0.0
    eff = np.empty(len(s))
    eff[0] = s[0]
    for k in range(1, len(s)):
        at_risk = s[k - 1] - c_new[k]
        if at_risk <= 0.0:
            eff[k:] = 0.0
            break
        eff[k] = eff[k - 1] * (s[k] / at_risk)
    return eff


def _centred_moments(x, y):
    """(var x, cov xy, var y) with bias 1, summed by math.fsum."""
    dx = x - math.fsum(x) / len(x)
    dy = y - math.fsum(y) / len(y)
    return tuple(math.fsum(p) / len(x) for p in (dx * dx, dx * dy, dy * dy))


def fit_escape_rate(survivors, window, censored=None,
                    min_tail: int = _MIN_TAIL, at_risk=None) -> EscapeEstimate:
    """Fit log of censor-corrected survival counts over a step window.

    window = (lo, hi), inclusive, is checked by check_window.  Raises
    AllEscapedError if the ensemble dies inside the window and
    StarvedSampleError if fewer than min_tail remain at hi.

    at_risk optionally gives the true binomial sample size at each
    step for the noise term; defaults to the survivor counts.  A
    constant-population scheme should pass its population size here,
    since its ratio estimates stay at full sample size even though the
    effective curve decays.
    """
    s = np.asarray(survivors, dtype=float)
    lo, hi = check_window(window, len(s) - 1)
    if s[hi] <= 0:
        raise AllEscapedError(
            f"no survivors at step {hi}; shrink the window or the hole"
        )
    if s[hi] < min_tail:
        raise StarvedSampleError(
            f"only {s[hi]:.0f} survivors at step {hi} (< {min_tail}); "
            "increase n_particles"
        )
    eff = censor_corrected_counts(s, censored)
    x = np.arange(lo, hi + 1, dtype=float)
    # math.log and math.exp round the same on every host; numpy's SIMD
    # log and exp do not, and theta_hat is an artifact
    y = np.array([math.log(e) for e in eff[lo:hi + 1]])
    # ordinary least squares as in scipy.stats.linregress, with correctly
    # rounded sums: np.cov goes through BLAS, whose kernel, and so whose
    # last bits, depend on the CPU model.  y is shifted by y[0] first, so
    # a flat curve centres to exact zeros (ssym == 0) and fits exactly:
    # r = 0 gives se_ols = 0
    ssxm, ssxym, ssym = _centred_moments(x, y - y[0])
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0) if ssym > 0.0 else 0.0
    slope = float(ssxym / ssxm)
    se_ols = float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))
    theta = math.exp(slope)
    # Binomial counting noise.  The log-curve is a sum of per-step
    # increments log(S_m/S_{m-1}) which are independent given the past,
    # with variance ~ (1-theta)/(theta * at_risk_{m-1}).  The slope is a
    # fixed linear functional of the curve, so the increment at step m
    # enters through c_m = sum_{k >= m} w_k of the OLS weights.  The
    # naive per-point formula ignores this accumulation and
    # underestimates run-to-run spread several-fold.
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    w = (x - xbar) / sxx
    c = np.cumsum(w[::-1])[::-1]
    base = s if at_risk is None else np.asarray(at_risk, dtype=float)
    if base.shape != s.shape:
        raise InvalidArgumentError("at_risk counts must match survivors")
    p_loss = min(max(1.0 - theta, 0.0), 1.0)
    th = max(theta, 1e-12)
    var_binom = float((c[1:] ** 2 * p_loss / (th * base[lo:hi])).sum())
    stderr = float(np.sqrt(se_ols ** 2 + var_binom))
    return EscapeEstimate(
        theta_hat=theta,
        log_slope=slope,
        stderr=stderr,
        stderr_ols=se_ols,
        stderr_binomial=float(np.sqrt(var_binom)),
        window=(lo, hi),
        n_points=hi - lo + 1,
        survivors_at_end=float(s[hi]),
    )


def predicted_survivors(table, hole, n_particles: int, step: int) -> float:
    """Survivors at a step if each step lost the hole's stationary mass,
    n * exp(-nu(H) * step): the pre-flight estimate of a direct run."""
    return n_particles * math.exp(-_holes.hole_mass(table, hole) * step)


def estimate_escape_rate(table, hole, density, n_particles: int, n_max: int,
                         window, master_seed: int,
                         convention: str = "arrival", threads: int = 1):
    """Sample, evolve, fit; returns (EscapeEstimate, EnsembleResult).

    Raises StarvedSampleError before simulating when predicted_survivors
    at the window's end is 10x below _MIN_TAIL.
    """
    _, hi = check_window(window, n_max)
    predicted = predicted_survivors(table, hole, n_particles, hi)
    if 10.0 * predicted < _MIN_TAIL:
        raise StarvedSampleError(
            f"about {predicted:.3g} survivors predicted at step {hi} "
            f"(< {_MIN_TAIL}/10 from the hole mass); increase n_particles"
        )
    rng = stream(master_seed, "initial")
    state = _measures.sample_initial(table, density, n_particles, rng)
    res = _od.evolve_ensemble(table, hole, state, n_max,
                              convention=convention, threads=threads)
    return fit_escape_rate(res.survivors, window, censored=res.censored), res


def survivor_distribution(table, hole, density, n_particles: int,
                          n_steps: int, r_bins: int, phi_bins: int,
                          master_seed: int, convention: str = "arrival",
                          threads: int = 1, min_survivors: int = 1000):
    """Normalized histogram of the survivors at step n_steps.

    Returns (EmpiricalMeasure, EnsembleResult).  The histogram
    approximates the limiting conditional measure once n_steps clears
    the transient; raise min_survivors for acceptance-grade precision.
    """
    # checks the bin counts before any particle is drawn
    _measures.nu_measure(table, r_bins, phi_bins)
    rng = stream(master_seed, "initial")
    state = _measures.sample_initial(table, density, n_particles, rng)
    res = _od.evolve_ensemble(
        table, hole, state, n_steps,
        convention=convention, threads=threads,
    )
    n_surv = len(res.alive_index)
    if n_surv < min_survivors:
        raise StarvedSampleError(
            f"{n_surv} survivors at step {n_steps} (< {min_survivors})"
        )
    m = _measures.bin_measure(
        table, res.final_sid, res.final_r, res.final_phi, r_bins, phi_bins
    ).normalized()
    return m, res


@dataclass
class FVResult:
    """Fleming-Viot run summary: corrected curve and final population."""

    estimate: EscapeEstimate
    eff_counts: np.ndarray
    ratios: np.ndarray
    final_sid: np.ndarray
    final_r: np.ndarray
    final_phi: np.ndarray
    n_censored: int
    n_cloned: int
    captures: dict = field(default_factory=dict)


def _rotate(u, tau):
    """Rotate vectors u (m,2) by the angles 2*atan(tau) (m,), with the
    rational cos and sin (1 - tau^2, 2*tau) / (1 + tau^2): no
    trigonometry, and for a jitter-sized angle a = 2*tau the rotation
    is by a to within a^3/12."""
    t2 = tau * tau
    c = (1.0 - t2) / (1.0 + t2)
    s = (tau + tau) / (1.0 + t2)
    return np.stack([c * u[:, 0] - s * u[:, 1], s * u[:, 0] + c * u[:, 1]], axis=1)


def fleming_viot_evolve(table, hole, density, n_particles: int, n_steps: int,
                        window, master_seed: int, threads: int = 1,
                        capture=()) -> FVResult:
    """Constant-population estimator: clone a uniform survivor per kill.

    The per-step survival ratios exclude censored particles from both
    sides; their running product plays the role of the survival curve.
    The final population approximates the limiting conditional measure;
    capture lists steps whose post-cloning population to snapshot, as
    (sid, r, phi).

    Clones get a tiny phase jitter: the normal and the velocity are
    turned together by dr/rho, which moves r by dr, then the velocity
    alone by dphi, and phi is capped at TANGENCY_GUARD from +-pi/2 on
    its cosine.  The map is deterministic, so an exact copy would shadow
    its parent forever and the population would collapse onto ever
    fewer distinct orbits; hyperbolicity amplifies the jitter to
    independence within ~10 steps while displacing the sampled measure
    by far less than any histogram bin.

    Escapes are counted under the arrival convention only: ratios[0] is
    the index-0 loss of initial states already in the hole.
    """
    if n_steps <= 0:
        raise InvalidArgumentError("n_steps must be positive")
    check_window(window, n_steps)
    capture = _od.capture_steps(capture, n_steps)
    captures: dict = {}
    rng_init = stream(master_seed, "initial")
    state = _measures.sample_initial(table, density, n_particles, rng_init)
    rng = stream(master_seed, "fleming-viot")

    eff = np.empty(n_steps + 1)
    ratios = np.empty(n_steps + 1)
    n_cens_total = 0
    n_cloned = 0

    jitter = 1e-5
    cos_cap = _bmap._COS_GUARD

    def clone_into(dead_idx, alive_idx):
        nonlocal n_cloned
        if len(dead_idx) == 0:
            return
        if len(alive_idx) == 0:
            raise ExtinctionError("every particle died in one step")
        m = len(dead_idx)
        src = alive_idx[rng.integers(0, len(alive_idx), size=m)]
        sid = state.sid.take(src)
        tau_r = 0.5 * rng.uniform(-jitter, jitter, size=m) / table.radii[sid]
        tau_phi = 0.5 * rng.uniform(-jitter, jitter, size=m)
        nrm = _rotate(state.normal.take(src, axis=0), tau_r)
        vel = _rotate(_rotate(state.velocity.take(src, axis=0), tau_r), tau_phi)
        nx, ny = nrm[:, 0], nrm[:, 1]
        cosp = vel[:, 0] * nx + vel[:, 1] * ny
        low = np.flatnonzero(cosp < cos_cap)
        if low.size:
            # cap phi at the guard: cos = cos_cap, sin keeps its sign
            sinp = np.where(vel[low, 1] * nx[low] - vel[low, 0] * ny[low] < 0.0, -1.0, 1.0)
            sinp *= math.sqrt((1.0 - cos_cap) * (1.0 + cos_cap))
            vel[low, 0] = cos_cap * nx[low] - sinp * ny[low]
            vel[low, 1] = cos_cap * ny[low] + sinp * nx[low]
        state.sid[dead_idx] = sid
        state.normal[dead_idx] = nrm
        state.velocity[dead_idx] = vel
        n_cloned += m

    for k in range(n_steps + 1):
        if k:
            # dead entries of the arrivals are placeholders, overwritten by clones
            state, cens, esc = _od.open_step_batch(table, hole, state, threads)
        else:
            # index 0: initial states already in the hole; the mask never
            # marks a censored state
            esc, cens = _od.hole_membership(table, hole, state, threads)
        dead = cens | esc
        n_cens = int(cens.sum())
        n_cens_total += n_cens
        at_risk = n_particles - n_cens
        surv = n_particles - int(dead.sum())
        if at_risk <= 0 or surv <= 0:
            raise ExtinctionError(f"population went extinct at step {k}")
        ratios[k] = surv / at_risk
        eff[k] = (eff[k - 1] if k else n_particles) * ratios[k]
        clone_into(np.flatnonzero(dead), np.flatnonzero(~dead))
        if k in capture:
            captures[k] = _bmap.phase_of(table, state)

    # cloning keeps every ratio at full population size
    pop = np.full(len(eff), float(n_particles))
    est = fit_escape_rate(eff, window, censored=None, min_tail=0,
                          at_risk=pop)
    final_sid, final_r, final_phi = _bmap.phase_of(table, state)
    return FVResult(
        estimate=est,
        eff_counts=eff,
        ratios=ratios,
        final_sid=final_sid,
        final_r=final_r,
        final_phi=final_phi,
        n_censored=n_cens_total,
        n_cloned=n_cloned,
        captures=captures,
    )


@dataclass(frozen=True)
class SweepRow:
    h: float
    theta_hat: float
    stderr: float
    distance_to_nu: float
    noise_floor: float
    survivors_at_step: int


def small_hole_sweep(table, anchor, h_list, density, n_particles: int,
                     n_max: int, window, measure_step: int, r_bins: int,
                     phi_bins: int, master_seed: int, kind: str,
                     offset: float = 0.0, convention: str = "arrival",
                     threads: int = 1):
    """Escape rate and survivor-measure drift across a shrinking family.

    Shares one initial ensemble across hole sizes (common random
    numbers), so the monotone coupling of nested holes carries over to
    the estimates.  Each row reports theta_hat, the distance of the
    step-measure_step survivor histogram to the stationary reference,
    and a sampling noise floor computed at the matching survivor count.
    """
    check_sweep(h_list, n_max, window, measure_step)
    # checks the bin counts before any particle is drawn
    ref = _measures.nu_measure(table, r_bins, phi_bins)
    rng = stream(master_seed, "initial")
    state = _measures.sample_initial(table, density, n_particles, rng)
    rows = []
    for h in h_list:
        hole = _holes.hole_family(table, anchor, h, offset=offset, kind=kind)
        res = _od.evolve_ensemble(
            table, hole, state, n_max,
            convention=convention, threads=threads, capture=(measure_step,),
        )
        est = fit_escape_rate(res.survivors, window, censored=res.censored)
        cs, cr, cphi = res.captures[measure_step]
        n_surv = len(cs)
        if n_surv == 0:
            raise AllEscapedError(f"no survivors at step {measure_step} for h={h}")
        m = _measures.bin_measure(table, cs, cr, cphi, r_bins, phi_bins).normalized()
        dist = _measures.measure_distance(m, ref)
        floor = _measures.noise_floor(
            table, n_surv, r_bins, phi_bins, master_seed
        )
        rows.append(SweepRow(
            h=float(h),
            theta_hat=est.theta_hat,
            stderr=est.stderr,
            distance_to_nu=dist,
            noise_floor=floor,
            survivors_at_step=n_surv,
        ))
    return rows


def backward_hole_visits(table, hole, state, k_steps: int):
    """Count hole memberships along k_steps of the inverse map.

    state is a billiard_map.State.  Returns (visits, censored):
    visits[i] counts how many of the states x, f^-1 x, ..., f^-k x lie
    in the hole; censored marks particles whose backward orbit hit the
    tangency guard, checked only up to the censoring step.
    """
    n = len(state.sid)
    visits = np.zeros(n, dtype=np.int64)
    cens = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    for k in range(k_steps + 1):
        back = _bmap.collide_inverse_cartesian(table, *state)
        inside, undecided = _holes.in_hole_given_flight(
            table, hole, state.sid, state.normal, back)
        visits[idx[inside]] += 1
        cens[idx[undecided]] = True
        if k == k_steps:
            break
        cens[idx[back.censored]] = True
        ok = np.flatnonzero(~back.censored)
        idx = idx[ok]
        state = back.arrivals().take(ok)
    return visits, cens


def singularity_diagnostic(table, hole, k_steps: int, n_particles: int,
                           master_seed: int, convention: str = "arrival",
                           threads: int = 1, n_backcheck: int = 2000,
                           k_backcheck: int = 10):
    """Mass of the K-step hole history versus its mass under survivors.

    The stationary mass of the union of the first K forward images of
    the hole equals the escape probability within K steps (the map
    preserves the stationary measure, so pulling the union back K steps
    turns membership into escape).  Survivor states at step K have, by
    construction, a forward history that never touched the hole, so the
    step-K survivor measure of the union is exactly zero; that mass is
    read off the kill bookkeeping, not asserted.

    A short backward consistency check retraces k_backcheck inverse
    steps of a survivor subsample and recounts memberships, which must
    again be zero.  The horizon is kept short on purpose: hyperbolicity
    amplifies rounding exponentially, so deep inverse orbits stop
    shadowing the forward history and say nothing about it.
    """
    rng = stream(master_seed, "singularity")
    state = _measures.sample_nu_state(table, n_particles, rng)
    res = _od.evolve_ensemble(
        table, hole, state, k_steps,
        convention=convention, threads=threads,
    )
    at_risk = n_particles - int(res.censored[-1])
    if at_risk <= 0:
        raise StarvedSampleError("every trajectory was censored")
    fraction = float(res.escaped[-1]) / at_risk
    n_surv = len(res.alive_index)
    # survivors have escape_step == -1, so this count is exactly zero;
    # computing it through the bookkeeping keeps the claim honest
    in_union = int(np.count_nonzero(res.escape_step[res.alive_index] >= 0))
    survivor_mass = in_union / n_surv if n_surv else 0.0
    m = min(n_backcheck, n_surv)
    if m > 0:
        visits, cens = backward_hole_visits(
            table, hole, res.final_state.take(np.arange(m)),
            min(k_backcheck, k_steps),
        )
        violations = int(visits[~cens].sum())
        checked = int((~cens).sum())
    else:
        violations, checked = 0, 0
    return {
        "fraction_entered": fraction,
        "k_steps": int(k_steps),
        "n_particles": int(n_particles),
        "n_censored": int(res.censored[-1]),
        "n_survivors": int(n_surv),
        "survivor_hole_mass": float(survivor_mass),
        "backward_violations": violations,
        "n_backchecked": checked,
        "k_backcheck": int(min(k_backcheck, k_steps)),
    }

