"""Run benchmark workloads, each in a fresh single-threaded child process.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --write-spec

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every job passed its gate.
``--write-spec`` regenerates BENCHMARK.json from perfbench/spec.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 170

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def source_missing() -> str | None:
    pkg = ROOT / "src" / "cubulations"
    missing = [m for m in spec.TRACED_FUNCTIONS
               if not (pkg / f"{m}.py").is_file()]
    if missing:
        return f"no cubulations source under {pkg} (missing {missing[0]}.py)"
    return None


def import_from_source() -> None:
    """Put src/ first on the path and make sure that copy is the one used."""
    sys.path.insert(0, str(ROOT / "src"))
    import cubulations.core
    where = Path(cubulations.core.__file__).resolve()
    if where.parent != (ROOT / "src" / "cubulations").resolve():
        raise SystemExit(f"cubulations imported from {where}, not the checkout")


def child_main(args) -> int:
    import_from_source()
    from perfbench.measure import measure
    from perfbench.workloads import WORKLOADS

    def log(line: str) -> None:
        print(line, flush=True)

    res = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), OUT, log)
    doc = {
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": [r.error for r in res.records() if r.error],
        "end_to_end": res.end_to_end(),
        "jobs": res.attempted - len(res.traced or []),
        "passes": len(res.passes),
        "layers": res.layers,
        "shares": res.shares[:8],
    }
    Path(args.result).write_text(json.dumps(doc))
    return 0


def run_child(args, workload: str) -> tuple[dict | None, float, int]:
    """Run one workload in a child; its result, peak RSS in MB, exit code."""
    OUT.mkdir(parents=True, exist_ok=True)
    result = OUT / f"result-{workload}-{args.seed}-{os.getpid()}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            print(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s, killed",
                  file=sys.stderr)
            break
        time.sleep(0.05)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    doc = None
    if result.exists():
        doc = json.loads(result.read_text())
        result.unlink()
    return doc, usage.ru_maxrss / 1024.0, code


def report(args, workload: str) -> bool:
    doc, rss_mb, code = run_child(args, workload)
    if doc is None or code != 0:
        print(f"{workload}: child exited with code {code} and no result",
              file=sys.stderr)
        return False
    if args.trace:
        metrics = {name: (doc["layers"][name], unit)
                   for name, unit, _ in spec.PER_LAYER}
        print(f"{workload}: self-time share of the traced set-up and pass "
              f"0 ({doc['layers']['trace.wall_s']:.3f} s, overhead "
              f"{doc['layers']['trace.overhead_s']:+.3f} s over the "
              "untraced ones)")
        for name, share in doc["shares"]:
            print(f"  {100 * share:6.2f} %  {name}")
        modules = sorted(spec.TRACED_FUNCTIONS, key=lambda m: -doc["layers"][
            f"{m}.self_s"])
        wall = doc["layers"]["trace.wall_s"]
        print("  by layer: " + ", ".join(
            f"{m} {100 * doc['layers'][f'{m}.self_s'] / wall:.1f} %"
            for m in modules))
    else:
        e2e = dict(doc["end_to_end"], peak_rss_mb=rss_mb)
        metrics = {name: (e2e[name], unit) for name, unit, _, _ in
                   spec.END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value} {unit}")
    if not args.trace:
        print(f"{workload}: {doc['jobs']} jobs in {doc['passes']} passes; "
              "job_p50_s and job_max_s are over those jobs")
    for err in doc["errors"]:
        print(f"{workload}: FAILED {err}")
    ok = doc["failed"] == 0
    print(json.dumps({
        "correct": ok,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in
                    metrics.items()},
    }), flush=True)
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    problem = source_missing()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = report(args, name) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
