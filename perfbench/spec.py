"""Workloads and metrics of the benchmark, and the BENCHMARK.json built from them.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a separate traced set-up and pass.  A layer is a module of ``cubulations``; the
traced functions of each layer are listed in TRACED_FUNCTIONS.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 45

# name -> why the workload is in the benchmark
WORKLOADS = {
    "pipeline": "structural sphere3 at n=11, the basis census at n=31, 37 "
                "and a pillow fill that runs out of budget: vertex_link "
                "checks, basis verification, fill search; no homology",
    "climb": "full-level Heegaard S3 in set-up, then doublings to S4 and "
             "handlebody fills that certify: Smith normal form and rank "
             "paths, products and boundaries",
}

# (name, unit, better, bound); bound is the share of the parent's median
# by which the metric may get worse before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("job_max_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

TRACED_FUNCTIONS = {
    "core": ("build_complex", "validate", "vertex_link", "manifold_check",
             "pseudomanifold_check"),
    "topology": ("surface_invariants", "betti_numbers",
                 "smith_invariant_factors", "rank_mod_p", "rank_over_q",
                 "homology_sphere_check"),
    "basis": ("canonical_basis", "verify_basis", "arrangement_crossings",
              "refine_census", "refine_report", "regularize_with_chains"),
    "transforms": ("cartesian_product", "glue", "boundary_complex",
                   "remove_facet", "apply_gadget"),
    "fillball": ("fill_ball", "verify_filling", "write_certificate",
                 "read_certificate"),
    "fileio": ("dumps_complex", "loads_complex"),
    "surface_gen": ("surface_report",),
    "sphere_builder": ("sphere3", "refining_cylinder", "handlebody",
                       "check_fill_request", "assemble_sphere3",
                       "induct_dimension"),
}


def _per_layer() -> list[tuple[str, str, str]]:
    out: list[tuple[str, str, str]] = []
    for module, names in TRACED_FUNCTIONS.items():
        out.append((f"{module}.self_s", "s", "lower"))
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.busy_s", "s", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
    out += [
        ("fillball.fill_ball.steps_failed", "count", "lower"),
        ("fillball.steps_per_s", "1/s", "higher"),
        ("fillball.fill_ok_frac", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer()

# Written down before measuring: which end-to-end metric each layer metric
# should move, on which workload, and where it should change nothing.
EXPECTED_MOVES = [
    ("core.vertex_link.busy_s", "pipeline.wall_s", "climb: few links"),
    ("topology.smith_invariant_factors.busy_s", "climb.wall_s, climb.setup_s",
     "pipeline: no homology there"),
    ("topology.rank_over_q.busy_s", "climb.wall_s", "pipeline"),
    ("topology.rank_mod_p.busy_s", "climb.wall_s", "pipeline"),
    ("basis.verify_basis.busy_s", "pipeline.wall_s",
     "climb; sphere3 at genus 0 has an empty basis"),
    ("basis.canonical_basis.busy_s", "pipeline.wall_s", "climb"),
    ("basis.refine_census.busy_s", "pipeline.wall_s", "climb"),
    ("sphere_builder.handlebody.busy_s", "climb.setup_s", "pipeline"),
    ("fillball.steps_per_s", "pipeline.wall_s, climb.wall_s, climb.setup_s",
     "fillball.fill_ok_frac at a fixed budget: only the move policy moves "
     "it"),
    ("transforms.cartesian_product.busy_s",
     "climb.wall_s, climb.peak_rss_mb", ""),
    ("transforms.boundary_complex.busy_s",
     "climb.wall_s, climb.peak_rss_mb", ""),
    ("core.build_complex.busy_s", "a few % of wall_s in every workload", ""),
    ("core.validate.busy_s", "a few % of wall_s in every workload", ""),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
