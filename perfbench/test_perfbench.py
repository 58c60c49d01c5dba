"""Tests of the benchmark itself: tracing, gates, metrics and the spec.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cubulations import core, fillball, sphere_builder, transforms  # noqa: E402
from perfbench import spec, workloads as wl  # noqa: E402
from perfbench.measure import measure, run_pass  # noqa: E402
from perfbench.tracer import Tracer, summarize  # noqa: E402


def cubulations_attrs() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name.startswith("cubulations")
            for attr, value in vars(mod).items()}


def boundary_c4():
    return core.build_complex(3, list(core.cube_faces(tuple(range(16)))))


def cube_boundary():
    return core.build_complex(2, list(core.cube_faces(tuple(range(8)))))


# ---------------------------------------------------------------------------
# tracer


def test_wrappers_reach_aliases_and_are_restored():
    before = cubulations_attrs()
    original_remove = transforms.remove_facet
    tracer = Tracer()
    with tracer:
        # the alias bound by `import remove_facet as _remove_facet`
        assert sphere_builder._remove_facet is not original_remove
        assert sphere_builder._remove_facet is transforms.remove_facet
        sphere_builder.induct_dimension(boundary_c4())
    after = cubulations_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s.name for s in tracer.spans}
    assert {"sphere_builder.induct_dimension", "transforms.remove_facet",
            "core.validate", "topology.homology_sphere_check",
            "topology.smith_invariant_factors"} <= names


def test_wrappers_are_restored_when_the_call_raises():
    before = cubulations_attrs()
    with pytest.raises(sphere_builder.AssemblyError):
        with Tracer():
            sphere_builder.induct_dimension(transforms.torus_complex(3))
    after = cubulations_attrs()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_sum_to_no_more_than_wall():
    c4 = boundary_c4()
    ball = insert_tower()
    jobs = [
        wl.Job("double_c4", lambda: sphere_builder.induct_dimension(c4),
               lambda _o: None),
        wl.Job("fill", lambda: fillball.fill_ball(ball, budget=2000),
               lambda _o: None),
    ]
    tracer = Tracer()
    records = run_pass(jobs, tracer=tracer)
    assert all(r.error is None for r in records)
    wall = sum(r.seconds for r in records)
    fns = summarize(tracer.spans)
    assert fns["fillball.fill_ball"]["calls"] >= 1
    assert sum(a["self_s"] for a in fns.values()) <= wall
    for name, agg in fns.items():
        assert 0 <= agg["self_s"] <= agg["busy_s"] + 1e-9, name
        assert agg["busy_s"] <= wall, name


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    c4 = boundary_c4()
    tiny = wl.Workload(
        "tiny", lambda seed: {"c4": c4},
        lambda inputs, p: [wl.Job(
            "double_c4",
            lambda: sphere_builder.induct_dimension(inputs["c4"]),
            lambda _o: None)])
    res = measure(tiny, 0, 0.01, True, tmp_path)
    assert len(res.passes) == 1 and res.failed == 0
    assert set(res.layers) == {name for name, _, _ in spec.PER_LAYER}
    assert res.layers["sphere_builder.induct_dimension.calls"] == 1
    assert (tmp_path / "spans-tiny-seed0.json").exists()
    spans = json.loads((tmp_path / "spans-tiny-seed0.json").read_text())
    assert spans["workload"] == "tiny" and spans["spans"]


def test_failed_jobs_are_counted(tmp_path):
    def boom():
        raise ValueError("boom")

    def wrong(_out):
        wl.gate(False, "wrong output")
    flaky = wl.Workload("flaky", lambda seed: {}, lambda inputs, p: [
        wl.Job("raises", boom, lambda _o: None),
        wl.Job("gate", lambda: 1, wrong),
        wl.Job("fine", lambda: 1, lambda _o: None)])
    res = measure(flaky, 0, 0.01, False, tmp_path)
    passes = len(res.passes)
    assert (res.attempted, res.failed) == (3 * passes, 2 * passes)
    assert set(res.end_to_end()) == {"setup_s", "wall_s", "job_p50_s",
                                     "job_max_s"}


# ---------------------------------------------------------------------------
# gates


@pytest.mark.xfail(raises=fillball.FillError, strict=True,
                   reason="fill_ball's search closes this sphere into a "
                          "homology S^3; the soundness backstop raises")
def test_opposite_pinwheel_search_is_unsound():
    # A bounded-search workload on gadget spheres waits for this to pass.
    S = cube_boundary()
    for sq in ((0, 2, 4, 6), (1, 3, 5, 7)):
        S = transforms.apply_gadget(S, sq, "square_10")
    try:
        fillball.fill_ball(S, budget=500)
    except fillball.FillFailed:
        pass


def test_census_gate_trips_on_a_wrong_f_vector():
    B = SimpleNamespace(genus=1, curves=((0,), (1,)))
    good = SimpleNamespace(f_vector=(10, 20, 10), quads=2)
    wl.check_census(7, 1, 10, (B, True, good))
    with pytest.raises(wl.GateError, match="Euler"):
        wl.check_census(7, 1, None, (B, True, SimpleNamespace(
            f_vector=(10, 21, 10), quads=2)))
    with pytest.raises(wl.GateError, match="default seed"):
        wl.check_census(7, 1, 15, (B, True, good))
    with pytest.raises(wl.GateError, match="verify_basis"):
        wl.check_census(7, 1, None, (B, False, good))


def test_default_seed_census_meets_the_reference_count():
    inputs = wl.pipeline_setup(wl.DEFAULT_SEED)
    assert all(roots == {31: 0, 37: 0} for _, roots, _ in inputs["passes"])
    job = wl.pipeline_jobs(inputs, 0)[2]
    assert job.name == "census_n31_root0"
    out = job.run()
    job.check(out)
    assert out[2].f_vector[2] == 441100
    other = wl.pipeline_setup(wl.DEFAULT_SEED + 1)
    assert any(roots[31] for _, roots, _ in other["passes"])


def insert_tower():
    S = cube_boundary()
    for sq in ((0, 1, 2, 3), (4, 5, 6, 7)):
        S = transforms.apply_gadget(S, sq, "insert_square_5")
    return S


def test_fill_gate_trips_on_a_tampered_certificate(tmp_path):
    S = insert_tower()
    out = wl.run_fill(S, 2000)
    wl.check_fill("tower", 2000, True, out)
    path = tmp_path / "ball.cert"
    fillball.write_certificate(out.cert, S, path)
    # point the first boundary cell of the sphere at another ball cell
    lines = path.read_text().splitlines()
    i = next(n for n, ln in enumerate(lines) if ln.startswith("bmap"))
    j = next(n for n, ln in enumerate(lines) if n > i
             and ln.startswith("bmap") and ln.split()[1] == "1")
    lines[i] = f"bmap 0 {lines[j].split()[2]}"
    path.write_text("\n".join(lines) + "\n")
    [rec] = run_pass([wl.Job("reread",
                             lambda: fillball.read_certificate(path, S),
                             lambda _o: None)])
    assert rec.error.startswith("FormatError")
    iso = dict(out.cert.boundary_iso)
    a, b = list(iso)[:2]
    iso[a], iso[b] = iso[b], iso[a]
    bad = fillball.FillCertificate(out.cert.ball, iso)
    with pytest.raises(wl.GateError, match="verify_filling"):
        wl.check_fill("tower", 2000, True, wl.FillOutcome(
            bad, fillball.verify_filling(bad, S), bad))
    with pytest.raises(wl.GateError, match="round trip"):
        wl.check_fill("tower", 2000, True, wl.FillOutcome(
            out.cert, out.check, bad))


def test_fill_gate_trips_when_a_search_runs_out_where_it_must_not():
    out = wl.run_fill(insert_tower(), 2)    # it needs three steps
    assert out.failure is not None and out.failure.steps == 2
    wl.check_fill("tower", 2, False, out)
    with pytest.raises(wl.GateError, match="must fill"):
        wl.check_fill("tower", 2, True, out)
    with pytest.raises(wl.GateError, match="budget"):
        wl.check_fill("tower", 3, False, out)


def test_pipeline_gate_counts_fill_requests():
    S = cube_boundary()
    census = SimpleNamespace(pillows=2, stage_f={"surface": (4, 6, 2)})

    def report(n_requests):
        reqs = tuple(sphere_builder.FillRequest(S, "x")
                     for _ in range(n_requests))
        return sphere_builder.StructuralReport(reqs, {"a": "structural"})
    wl.check_pipeline(5, 2, (report(4), census))
    with pytest.raises(wl.GateError, match="f2"):
        wl.check_pipeline(5, 2, (report(5), census))


def test_climb_gate_checks_vertex_growth_and_f_vector():
    C4 = boundary_c4()
    S4 = sphere_builder.induct_dimension(C4)
    wl.check_doubling((C4, S4), (64, 192, 232, 136, 34), "doubled C4")
    with pytest.raises(wl.GateError, match="4 x"):
        wl.check_doubling((S4, S4), None, "not doubled")
    with pytest.raises(wl.GateError, match="f-vector"):
        wl.check_sphere(S4, 4, (1, 2, 3, 4, 5), "wrong f")


# ---------------------------------------------------------------------------
# spec and command line


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()


def test_spec_is_within_the_benchmark_limits():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert set(wl.WORKLOADS) == set(spec.WORKLOADS)


def test_expected_moves_name_real_metrics():
    per_layer = {name for name, _, _ in spec.PER_LAYER}
    assert {layer for layer, _, _ in spec.EXPECTED_MOVES} <= per_layer


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
