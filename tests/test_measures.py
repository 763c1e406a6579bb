import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakybilliards import billiard_map as bmap
from leakybilliards import geometry, holes, measures
from leakybilliards.errors import (
    ConfigError,
    EmptySurvivorSetError,
    GridMismatchError,
    InvalidArgumentError,
)
from leakybilliards.streams import stream


def test_sampler_marginals(table, nu_states):
    sid, r, phi = nu_states
    n = len(sid)
    # scatterer mass proportional to perimeter: 0.4 vs 0.2 radius
    frac0 = (sid == 0).mean()
    assert abs(frac0 - 2.0 / 3.0) < 4.0 / math.sqrt(n)
    # angle marginal has density cos(phi)/2: mean 0, var pi^2/4 - 2
    assert abs(phi.mean()) < 4.0 / math.sqrt(n)
    assert abs(phi.var() - (math.pi ** 2 / 4.0 - 2.0)) < 10.0 / math.sqrt(n)
    # r uniform on each scatterer
    for s in (0, 1):
        rs = r[sid == s] / table.perimeters[s]
        assert abs(rs.mean() - 0.5) < 4.0 / math.sqrt(len(rs))


def test_weighted_sampler_tilts(table):
    spec = measures.DensitySpec(kind="angle_ramp", amp=0.5)
    state = measures.sample_initial(table, spec, 50_000, stream(5, "tilt"))
    _, _, phi = bmap.phase_of(table, state)
    # E[phi] under (1 + amp*2*phi/pi) cos(phi)/2 dphi:
    # amp*(2/pi)*E_nu[phi^2] = 0.5*(2/pi)*(pi^2/4 - 2)
    want = 0.5 * (2.0 / math.pi) * (math.pi ** 2 / 4.0 - 2.0)
    assert abs(phi.mean() - want) < 0.02


def test_density_spec_validation():
    with pytest.raises(InvalidArgumentError):
        measures.DensitySpec(kind="arc_cosine", amp=1.0)
    with pytest.raises(InvalidArgumentError):
        measures.DensitySpec(kind="wavelet")
    spec = measures.DensitySpec(kind="arc_cosine", amp=0.3, phase=1.0)
    assert spec.sup_weight == 1.3
    assert measures.DensitySpec().sup_weight == 1.0


def test_density_json_roundtrip():
    for spec in (
        measures.DensitySpec(),
        measures.DensitySpec(kind="arc_cosine", amp=0.4, phase=0.2),
        measures.DensitySpec(kind="angle_ramp", amp=-0.2),
    ):
        # each kind has only the fields it uses
        obj = {"kind": spec.kind, "amp": spec.amp, "phase": spec.phase}
        if spec.kind != "arc_cosine":
            del obj["phase"]
        if spec.kind == "nu":
            del obj["amp"]
        assert measures.density_from_json(obj) == spec
    assert measures.density_from_json({}) == measures.DensitySpec()
    for bad in (
        {"kind": "nu", "amp": "lots"},
        {"kind": "arc_cosine", "amp": "0.5"},
        {"kind": "arc_cosine", "amplitude": 0.5},
        {"kind": "angle_ramp", "amp": 0.2, "phase": True},
        {"kind": "nu", "amp": 0.5},
        {"kind": "angle_ramp", "amp": 0.2, "phase": 2.0},
        {"kind": 1},
        ["nu"],
    ):
        with pytest.raises(ConfigError):
            measures.density_from_json(bad)


def test_nu_measure_grid(table):
    m = measures.nu_measure(table, 16, 16)
    assert abs(m.total_mass - 1.0) < 1e-12
    # mass per scatterer proportional to perimeter
    per = m.weights.sum(axis=(1, 2))
    assert abs(per[0] - 2.0 / 3.0) < 1e-12
    # within a scatterer every r column carries the same mass
    col = m.weights[0].sum(axis=1)
    assert np.allclose(col, col[0])
    # middle angle bins outweigh edge bins (cos law)
    edge = m.weights[0, 0, 0]
    mid = m.weights[0, 0, 8]
    assert mid > 5 * edge


def test_empirical_matches_nu_measure(table):
    n = 200_000
    sid, r, phi = measures.sample_nu(table, n, stream(11, "hist"))
    emp = measures.bin_measure(table, sid, r, phi, 16, 16).normalized()
    exact = measures.nu_measure(table, 16, 16)
    floor = measures.noise_floor(table, n, 16, 16, 13)
    assert measures.measure_distance(emp, exact) < 2.0 * floor


def test_distance_axioms(table):
    rngs = [stream(21, "ax", i) for i in range(3)]
    ms = [
        measures.bin_measure(
            table, *measures.sample_nu(table, 5000, g), 8, 8
        ).normalized()
        for g in rngs
    ]
    a, b, c = ms
    assert measures.measure_distance(a, a) == 0.0
    assert measures.measure_distance(a, b) == measures.measure_distance(b, a)
    assert (
        measures.measure_distance(a, c)
        <= measures.measure_distance(a, b) + measures.measure_distance(b, c) + 1e-12
    )
    assert measures.measure_distance(a, b) <= 2.0 + 1e-12


def test_distance_input_checks(table):
    m8 = measures.nu_measure(table, 8, 8)
    m16 = measures.nu_measure(table, 16, 16)
    with pytest.raises(GridMismatchError):
        measures.measure_distance(m8, m16)
    with pytest.raises(InvalidArgumentError):
        measures.measure_distance(
            measures.EmpiricalMeasure(m8.weights * 3.0), m8
        )
    with pytest.raises(EmptySurvivorSetError):
        measures.EmpiricalMeasure(np.zeros_like(m8.weights)).normalized()


def test_noise_floor_deterministic_and_scales(table):
    f1 = measures.noise_floor(table, 4000, 8, 8, 77)
    f2 = measures.noise_floor(table, 4000, 8, 8, 77)
    assert f1 == f2
    f_big = measures.noise_floor(table, 64000, 8, 8, 77)
    # roughly 1/sqrt(n): quadrupling n should at least halve the floor
    assert f_big < 0.55 * f1


def test_closed_pushforward_is_stationary(table):
    # nu is invariant for the closed map, so one step should move the
    # histogram by about one noise floor
    n = 100_000
    sid, r, phi = measures.sample_nu(table, n, stream(31, "push"))
    dist, ratio, n_cens = measures.pushforward_residual(
        table, None, sid, r, phi, 16, 16
    )
    floor = measures.noise_floor(table, n, 16, 16, 32)
    assert dist < 2.0 * floor
    assert ratio == 1.0
    assert n_cens < 0.001 * n


def test_open_pushforward_loses_mass(table):
    n = 50_000
    hole = holes.type_i_hole(table, 0, 0.25, 0.35)
    sid, r, phi = measures.sample_nu(table, n, stream(41, "push-open"))
    _, ratio, _ = measures.pushforward_residual(table, hole, sid, r, phi, 16, 16)
    # nu mass of the hole arc is 0.1 / total_perimeter
    expect = 1.0 - 0.1 / table.total_perimeter
    assert abs(ratio - expect) < 5.0 / math.sqrt(n)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 2000))
def test_bin_measure_conserves_count(seed, n):
    table = geometry.default_table()
    sid, r, phi = measures.sample_nu(table, n, stream(seed, "count"))
    m = measures.bin_measure(table, sid, r, phi, 8, 8)
    assert m.total_mass == n


def _one_pass_state(table, sid, r, s):
    """measures._state as it was, the whole frame in one pass, kept as
    the oracle of the chunked fill."""
    c = np.sqrt((1.0 - s) * (1.0 + s))
    return bmap.State(sid, *geometry.boundary_frame(table, sid, r, c, s))


@pytest.mark.parametrize("density", [measures.DensitySpec(),
                                     measures.DensitySpec("arc_cosine", 0.5, 0.3)])
def test_chunked_sampling_matches_one_pass(table, monkeypatch, density):
    # 150000 states fill three chunks, the last one partly
    got = measures.sample_initial(table, density, 150_000, stream(5, "chunked-sample"))
    monkeypatch.setattr(measures, "_state", _one_pass_state)
    want = measures.sample_initial(table, density, 150_000, stream(5, "chunked-sample"))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_sampling_holds_little_more_than_its_ensemble(table):
    # the 40 B/particle ensemble, the 16 B/particle r and sin(phi) draws
    # and one chunk's frame; the frame of all states at once peaked at
    # 104-115 B/particle
    import tracemalloc

    n = 10 ** 6
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = measures.sample_initial(table, measures.DensitySpec(), n, stream(6, "sample-bytes"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in state) == 40 * n
    per_particle = (peak - before) / n
    print(f"sample_initial: {per_particle:.1f} B/particle")
    assert per_particle <= 70
