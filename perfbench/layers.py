"""Per-layer metrics: what each one measures and what it should move.

Each entry is (name, unit, better, moves).  moves lists the end-to-end
metric and workload pairs a change in this layer metric should show up
in; it is written down before any optimisation is measured, so a
claimed gain can be checked against where the time actually went.

Times are inclusive of wrapped callees unless the entry says "self"
(inclusive time minus the union of child span intervals).  Times of
calls on worker threads add up, so at 2 threads a layer can report
more seconds than the run's wall time.  Calls made
under the horizon probe are set-up work: they count only in
geometry.horizon_probe_s, not in the solve-phase geometry metrics.
"""

from __future__ import annotations

BILLIARD = ("escape-direct", "fv-typeII")
ALL = BILLIARD + ("tower-spectral",)


def _on(metrics, workloads):
    return [(m, w) for m in metrics for w in workloads]


_SOLVE_B = _on(("solve_s", "work_per_s"), BILLIARD)
_FV = [("solve_s", "fv-typeII")]
_ESC = [("solve_s", "escape-direct")]
_TOWER = [("solve_s", "tower-spectral"), ("work_per_s", "tower-spectral")]

LAYERS = [
    ("cli.import_s", "s", "lower", _on(("setup_s",), ALL) + [("wall_s", "tower-spectral")]),
    ("cli.write_results_s", "s", "lower", [("wall_s", "escape-direct")]),
    ("geometry.horizon_probe_s", "s", "lower", _on(("setup_s", "peak_rss_mb"), BILLIARD)),
    ("geometry.first_hit_batch_s", "s", "lower", _SOLVE_B),
    ("geometry.first_hit_batch.rays", "count", "lower", _SOLVE_B),
    ("geometry.first_hit_batch.grazed", "count", "lower", _SOLVE_B),
    ("geometry.rays_from_boundary_s", "s", "lower", _SOLVE_B),
    ("billiard_map.collide_batch_s", "s", "lower", _SOLVE_B),  # self
    ("billiard_map.collisions", "count", "lower", _SOLVE_B),
    ("billiard_map.censored_ratio", "ratio", "lower", _SOLVE_B),
    ("billiard_map.collide_inverse_batch_s", "s", "lower", _FV),
    ("holes.arrival_escape_mask_s", "s", "lower", _FV),
    ("holes.segment_crosses_disk_s", "s", "lower", _FV),
    ("holes.segment_crosses_disk.offset_tests", "count", "lower", _FV),
    ("holes.state_in_hole_batch_s", "s", "lower", _FV),
    ("open_dynamics.collide_batch_threaded_s", "s", "lower", _FV),  # self
    ("open_dynamics.thread_busy_ratio", "ratio", "higher", _FV),
    ("open_dynamics.calls_below_chunk", "count", "lower", _ESC),
    ("open_dynamics.evolve_ensemble_s", "s", "lower", _ESC),  # self
    ("measures.sample_initial_s", "s", "lower", _on(("solve_s",), BILLIARD)),
    ("measures.bin_measure_s", "s", "lower", _FV),
    ("measures.noise_floor_s", "s", "lower", _FV),
    ("escape.fleming_viot_evolve_s", "s", "lower", _FV),  # self
    ("escape.n_cloned", "count", "lower", _FV),
    ("escape.fit_escape_rate_s", "s", "lower", _ESC),
    ("tower.build_tower_s", "s", "lower", [("setup_s", "tower-spectral")]),
    ("tower.depth_tables_s", "s", "lower", _TOWER),
    ("tower.transfer_apply_s", "s", "lower", _TOWER),  # self
    ("tower.transfer_apply.calls", "count", "lower", _TOWER),
    ("tower.transfer_apply.cylinders_per_s", "1/s", "higher", _TOWER),
    ("tower.leading_eigenpair_s", "s", "lower", _TOWER),  # self
    ("tower.leading_eigenpair.iterations", "count", "lower", _TOWER),
    ("tower.markov_matrix_oracle_s", "s", "lower", _TOWER),
    ("tower.theta_lower_bound_s", "s", "lower", _TOWER),
    ("tower.tail_mass_check_s", "s", "lower", _TOWER),
    ("tower.d_functional_s", "s", "lower", _TOWER),
]

# traced wall_s minus untraced wall_s in the same run; moves nothing
OVERHEAD = ("trace.overhead_s", "s", "lower")

# Counters that need instrumentation inside the program (ROADMAP item 1)
# and so cannot be seen from outside yet.
UNOBSERVABLE = {
    "geometry.candidates_per_ray": "image candidates tested per ray in first_hit_batch",
    "geometry.graze_rechecks": "rays sent to the exact grazing recheck loop",
    "billiard_map.censor_reasons": "censored collisions split by tangency, cosine guard, graze, no hit",
}


def layer_values(summary: dict, import_s: float) -> dict:
    """Per-layer metric values of one traced process."""

    def rec(name):
        return summary.get(name, {})

    def total(name):
        return rec(name).get("total_s", 0.0)

    def self_s(name):
        return rec(name).get("self_s", 0.0)

    def count(name, key):
        return rec(name).get("counts", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fhb, cb = "geometry.first_hit_batch", "billiard_map.collide_batch"
    seg, cbt = "holes.segment_crosses_disk", "open_dynamics.collide_batch_threaded"
    ta, le = "tower.transfer_apply", "tower.leading_eigenpair"
    return {
        "cli.import_s": import_s,
        "cli.write_results_s": total("cli.write_results"),
        "geometry.horizon_probe_s": total("geometry.horizon_probe"),
        "geometry.first_hit_batch_s": total(fhb),
        "geometry.first_hit_batch.rays": count(fhb, "rays"),
        "geometry.first_hit_batch.grazed": count(fhb, "grazed"),
        "geometry.rays_from_boundary_s": total("geometry.rays_from_boundary"),
        "billiard_map.collide_batch_s": self_s(cb),
        "billiard_map.collisions": count(cb, "collisions"),
        "billiard_map.censored_ratio": ratio(count(cb, "censored"), count(cb, "collisions")),
        "billiard_map.collide_inverse_batch_s": total("billiard_map.collide_inverse_batch"),
        "holes.arrival_escape_mask_s": total("holes.arrival_escape_mask"),
        "holes.segment_crosses_disk_s": total(seg),
        "holes.segment_crosses_disk.offset_tests": count(seg, "offset_tests"),
        "holes.state_in_hole_batch_s": total("holes.state_in_hole_batch"),
        "open_dynamics.collide_batch_threaded_s": self_s(cbt),
        "open_dynamics.thread_busy_ratio": ratio(rec(cbt).get("child_s", 0.0),
                                                 rec(cbt).get("thread_capacity_s", 0.0)),
        "open_dynamics.calls_below_chunk": count(cbt, "below_chunk"),
        "open_dynamics.evolve_ensemble_s": self_s("open_dynamics.evolve_ensemble"),
        "measures.sample_initial_s": total("measures.sample_initial"),
        "measures.bin_measure_s": total("measures.bin_measure"),
        "measures.noise_floor_s": total("measures.noise_floor"),
        "escape.fleming_viot_evolve_s": self_s("escape.fleming_viot_evolve"),
        "escape.n_cloned": count("escape.fleming_viot_evolve", "n_cloned"),
        "escape.fit_escape_rate_s": total("escape.fit_escape_rate"),
        "tower.build_tower_s": total("tower.build_tower"),
        "tower.depth_tables_s": total("tower.depth_tables"),
        "tower.transfer_apply_s": self_s(ta),
        "tower.transfer_apply.calls": rec(ta).get("calls", 0),
        "tower.transfer_apply.cylinders_per_s": ratio(count(ta, "cylinders"), total(ta)),
        "tower.leading_eigenpair_s": self_s(le),
        "tower.leading_eigenpair.iterations": count(le, "iterations"),
        "tower.markov_matrix_oracle_s": total("tower.markov_matrix_oracle"),
        "tower.theta_lower_bound_s": total("tower.theta_lower_bound"),
        "tower.tail_mass_check_s": total("tower.tail_mass_check"),
        "tower.d_functional_s": total("tower.d_functional"),
    }
