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

    def to_json(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "log_slope": self.log_slope,
            "stderr": self.stderr,
            "stderr_ols": self.stderr_ols,
            "stderr_binomial": self.stderr_binomial,
            "window": [self.window[0], self.window[1]],
            "n_points": self.n_points,
            "survivors_at_end": self.survivors_at_end,
        }


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


def fit_escape_rate(survivors, window, censored=None,
                    min_tail: int = 100, at_risk=None) -> EscapeEstimate:
    """Fit log of censor-corrected survival counts over a step window.

    window = (lo, hi), inclusive, needs at least 3 points.  Raises
    AllEscapedError if the ensemble dies inside the window and
    StarvedSampleError if fewer than min_tail remain at hi.

    at_risk optionally gives the true binomial sample size at each
    step for the noise term; defaults to the survivor counts.  A
    constant-population scheme should pass its population size here,
    since its ratio estimates stay at full sample size even though the
    effective curve decays.
    """
    lo, hi = int(window[0]), int(window[1])
    s = np.asarray(survivors, dtype=float)
    if not (0 <= lo < hi < len(s)):
        raise InvalidArgumentError(
            f"window [{lo},{hi}] outside the recorded range [0,{len(s)-1}]"
        )
    if hi - lo < 2:
        raise InvalidArgumentError("window needs at least 3 points")
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
    y = np.log(eff[lo:hi + 1])
    # ordinary least squares, in the arithmetic of scipy.stats.linregress;
    # a flat curve (ssym == 0) fits exactly, so r = 0 gives se_ols = 0
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0) if ssym > 0.0 else 0.0
    slope = float(ssxym / ssxm)
    se_ols = float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))
    theta = float(np.exp(slope))
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


def estimate_escape_rate(table, hole, density, n_particles: int, n_max: int,
                         window, master_seed: int,
                         convention: str = "arrival", threads: int = 1,
                         min_tail: int = 100, capture=()):
    """Sample, evolve, fit; returns (EscapeEstimate, EnsembleResult)."""
    rng = stream(master_seed, "initial")
    sid, r, phi = _measures.sample_initial(table, density, n_particles, rng)
    res = _od.evolve_ensemble(
        table, hole, sid, r, phi, n_max,
        convention=convention, threads=threads, capture=capture,
    )
    est = fit_escape_rate(res.survivors, window, censored=res.censored,
                          min_tail=min_tail)
    return est, res


def survivor_distribution(table, hole, density, n_particles: int,
                          n_steps: int, r_bins: int, phi_bins: int,
                          master_seed: int, convention: str = "arrival",
                          threads: int = 1, min_survivors: int = 1000):
    """Normalized histogram of the survivors at step n_steps.

    Returns (EmpiricalMeasure, EnsembleResult).  The histogram
    approximates the limiting conditional measure once n_steps clears
    the transient; raise min_survivors for acceptance-grade precision.
    """
    rng = stream(master_seed, "initial")
    sid, r, phi = _measures.sample_initial(table, density, n_particles, rng)
    res = _od.evolve_ensemble(
        table, hole, sid, r, phi, n_steps,
        convention=convention, threads=threads,
    )
    n_surv = len(res.final_sid)
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


def fleming_viot_evolve(table, hole, density, n_particles: int, n_steps: int,
                        window, master_seed: int, threads: int = 1,
                        capture=()) -> FVResult:
    """Constant-population estimator: clone a uniform survivor per kill.

    The per-step survival ratios exclude censored particles from both
    sides; their running product plays the role of the survival curve.
    The final population approximates the limiting conditional measure;
    capture lists steps whose post-cloning population to snapshot.

    Clones get a tiny phase jitter.  The map is deterministic, so an
    exact copy would shadow its parent forever and the population would
    collapse onto ever fewer distinct orbits; hyperbolicity amplifies
    the jitter to independence within ~10 steps while displacing the
    sampled measure by far less than any histogram bin.

    Escapes are counted under the arrival convention only: ratios[0] is
    the index-0 loss of initial states already in the hole.
    """
    if n_steps <= 0:
        raise InvalidArgumentError("n_steps must be positive")
    capture = set(int(c) for c in capture)
    captures: dict = {}
    rng_init = stream(master_seed, "initial")
    sid, r, phi = _measures.sample_initial(table, density, n_particles, rng_init)
    sid = sid.copy()
    r = r.copy()
    phi = phi.copy()
    rng = stream(master_seed, "fleming-viot")
    images = _holes.escape_offsets(table, hole)

    eff = np.empty(n_steps + 1)
    ratios = np.empty(n_steps + 1)
    ratios[0] = 1.0
    n_cens_total = 0
    n_cloned = 0

    jitter = 1e-5
    phi_cap = np.pi / 2 - 1e-9

    def clone_into(dead_idx, alive_idx):
        nonlocal n_cloned
        if len(dead_idx) == 0:
            return
        if len(alive_idx) == 0:
            raise ExtinctionError("every particle died in one step")
        m = len(dead_idx)
        src = alive_idx[rng.integers(0, len(alive_idx), size=m)]
        sid[dead_idx] = sid[src]
        perim = table.perimeters[sid[src]]
        r[dead_idx] = np.mod(
            r[src] + rng.uniform(-jitter, jitter, size=m), perim
        )
        phi[dead_idx] = np.clip(
            phi[src] + rng.uniform(-jitter, jitter, size=m),
            -phi_cap, phi_cap,
        )
        n_cloned += m

    if hole is not None:
        mask, cens = _holes.state_in_hole_batch(table, hole, sid, r, phi, images)
        dead = mask | cens
        n_cens = int(cens.sum())
        n_cens_total += n_cens
        at_risk = n_particles - n_cens
        surv = at_risk - int((mask & ~cens).sum())
        if at_risk <= 0 or surv <= 0:
            raise ExtinctionError("no uncensored survivors at step 0")
        ratios[0] = surv / at_risk
        clone_into(np.flatnonzero(dead), np.flatnonzero(~dead))
    eff[0] = n_particles * ratios[0]
    if 0 in capture:
        captures[0] = (sid.copy(), r.copy(), phi.copy())

    for k in range(1, n_steps + 1):
        batch, esc = _od.open_step_batch(table, hole, images, sid, r, phi,
                                         threads)
        dead = batch.censored | esc
        alive = ~dead
        n_cens = int(batch.censored.sum())
        n_cens_total += n_cens
        at_risk = n_particles - n_cens
        surv = int(alive.sum())
        if at_risk <= 0 or surv <= 0:
            raise ExtinctionError(f"population went extinct at step {k}")
        ratios[k] = surv / at_risk
        eff[k] = eff[k - 1] * ratios[k]
        sid[alive] = batch.scatterer_id[alive]
        r[alive] = batch.r[alive]
        phi[alive] = batch.phi[alive]
        clone_into(np.flatnonzero(dead), np.flatnonzero(alive))
        if k in capture:
            captures[k] = (sid.copy(), r.copy(), phi.copy())

    # cloning keeps every ratio at full population size
    pop = np.full(len(eff), float(n_particles))
    est = fit_escape_rate(eff, window, censored=None, min_tail=0,
                          at_risk=pop)
    return FVResult(
        estimate=est,
        eff_counts=eff,
        ratios=ratios,
        final_sid=sid,
        final_r=r,
        final_phi=phi,
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

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "theta_hat": self.theta_hat,
            "stderr": self.stderr,
            "distance_to_nu": self.distance_to_nu,
            "noise_floor": self.noise_floor,
            "survivors_at_step": self.survivors_at_step,
        }


def small_hole_sweep(table, anchor, h_list, density, n_particles: int,
                     n_max: int, window, measure_step: int, r_bins: int,
                     phi_bins: int, master_seed: int, kind: str,
                     offset: float = 0.0, convention: str = "arrival",
                     threads: int = 1, min_tail: int = 100):
    """Escape rate and survivor-measure drift across a shrinking family.

    Shares one initial ensemble across hole sizes (common random
    numbers), so the monotone coupling of nested holes carries over to
    the estimates.  Each row reports theta_hat, the distance of the
    step-measure_step survivor histogram to the stationary reference,
    and a sampling noise floor computed at the matching survivor count.
    """
    if not h_list:
        raise InvalidArgumentError("h_list must be nonempty")
    if not 0 < measure_step <= n_max:
        raise InvalidArgumentError("measure_step must lie in [1, n_max]")
    rng = stream(master_seed, "initial")
    sid, r, phi = _measures.sample_initial(table, density, n_particles, rng)
    ref = _measures.nu_measure(table, r_bins, phi_bins)
    rows = []
    for h in h_list:
        hole = _holes.hole_family(table, anchor, h, offset=offset, kind=kind)
        res = _od.evolve_ensemble(
            table, hole, sid, r, phi, n_max,
            convention=convention, threads=threads, capture=(measure_step,),
        )
        est = fit_escape_rate(res.survivors, window, censored=res.censored,
                              min_tail=min_tail)
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


def backward_hole_visits(table, hole, sid, r, phi, k_steps: int):
    """Count hole memberships along k_steps of the inverse map.

    Returns (visits, censored): visits[i] counts how many of the states
    x, f^-1 x, ..., f^-k x lie in the hole; censored marks particles
    whose backward orbit hit the tangency guard, checked only up to the
    censoring step.
    """
    sid = np.asarray(sid, dtype=np.int64).copy()
    r = np.asarray(r, dtype=float).copy()
    phi = np.asarray(phi, dtype=float).copy()
    n = len(sid)
    visits = np.zeros(n, dtype=np.int64)
    cens = np.zeros(n, dtype=bool)
    images = _holes.escape_offsets(table, hole)
    for k in range(k_steps + 1):
        idx = np.flatnonzero(~cens)
        back = _bmap.collide_inverse_batch(table, sid[idx], r[idx], phi[idx])
        inside, undecided = _holes.in_hole_given_flight(
            table, hole, sid[idx], r[idx], back, images
        )
        visits[idx[inside]] += 1
        cens[idx[undecided]] = True
        if k == k_steps:
            break
        cens[idx[back.censored]] = True
        ok = ~back.censored
        tgt = idx[ok]
        sid[tgt] = back.scatterer_id[ok]
        r[tgt] = back.r[ok]
        phi[tgt] = back.phi[ok]
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
    sid, r, phi = _measures.sample_nu(table, n_particles, rng)
    res = _od.evolve_ensemble(
        table, hole, sid, r, phi, k_steps,
        convention=convention, threads=threads,
    )
    at_risk = n_particles - int(res.censored[-1])
    if at_risk <= 0:
        raise StarvedSampleError("every trajectory was censored")
    fraction = float(res.escaped[-1]) / at_risk
    n_surv = len(res.final_sid)
    # survivors have escape_step == -1, so this count is exactly zero;
    # computing it through the bookkeeping keeps the claim honest
    in_union = int(np.count_nonzero(res.escape_step[res.alive_index] >= 0))
    survivor_mass = in_union / n_surv if n_surv else 0.0
    m = min(n_backcheck, n_surv)
    if m > 0:
        visits, cens = backward_hole_visits(
            table, hole, res.final_sid[:m], res.final_r[:m],
            res.final_phi[:m], min(k_backcheck, k_steps),
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

