"""Timing loop: set up several times, run passes of the job list, trace one.

A pass runs the workload's fixed job list once.  Passes repeat, each on the
seed's inputs for that pass, as long as the timed job seconds of one more
pass of average length still fit in the run's seconds; at least one pass
always runs.  Gates run outside the timing and outside that count.  The traced
run repeats one set-up and pass 0 after the untraced passes, so its time
minus the median set-up and the untraced pass 0 is the tracing overhead.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import spec
from .tracer import Tracer, summarize
from .workloads import MAX_PASSES, Job, Workload

# Set-up runs at least SETUP_MIN_REPEATS times, and a cheap one repeats
# until SETUP_MIN_S have gone by, so its median does not rest on a few
# tenth-of-a-second samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 3.0


@dataclass
class JobRecord:
    name: str
    seconds: float
    error: str | None = None     # exception or gate failure, one line


@dataclass
class RunResult:
    setup_times: list[float]
    passes: list[list[JobRecord]]
    traced: list[JobRecord] | None = None
    layers: dict[str, float] = field(default_factory=dict)
    shares: list[tuple[str, float]] = field(default_factory=list)

    def records(self) -> list[JobRecord]:
        out = [r for p in self.passes for r in p]
        return out + (self.traced or [])

    @property
    def attempted(self) -> int:
        return len(self.records())

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records() if r.error is not None)

    def end_to_end(self) -> dict[str, float]:
        """Every end-to-end metric but peak_rss_mb, which the parent reads
        from the operating system once this process has ended.  Each is a
        median: of the set-ups, of the pass times, of all job times, and of
        each pass's slowest job."""
        walls = [sum(r.seconds for r in p) for p in self.passes]
        jobs = [r.seconds for p in self.passes for r in p]
        slowest = [max(r.seconds for r in p) for p in self.passes]
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(jobs),
            "job_max_s": statistics.median(slowest),
        }


def run_pass(jobs: list[Job], log=None, tracer: Tracer | None = None
             ) -> list[JobRecord]:
    """Time each job; the tracer, if any, is installed around `run` only,
    so gates stay out of the spans."""
    out = []
    for job in jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer:
                    result = job.run()
        except Exception as e:  # a failing job is counted, the run goes on
            seconds = time.perf_counter() - start
            out.append(JobRecord(job.name, seconds, _one_line(e)))
            if log:
                log(f"  {job.name}: raised {_one_line(e)}")
                log(traceback.format_exc())
            continue
        seconds = time.perf_counter() - start
        error = None
        try:
            job.check(result)
        except Exception as e:
            error = _one_line(e)
        out.append(JobRecord(job.name, seconds, error))
        if log:
            status = "ok" if error is None else f"GATE FAILED: {error}"
            log(f"  {job.name}: {seconds:.4f} s {status}")
    return out


def _one_line(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}".splitlines()[0]


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            outdir: Path, log=None) -> RunResult:
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_S
            and len(setup_times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(seed)
        setup_times.append(time.perf_counter() - start)
    result = RunResult(setup_times, [])
    timed = 0.0
    for p in range(MAX_PASSES):
        if log:
            log(f"pass {p}")
        result.passes.append(run_pass(wl.jobs(inputs, p), log))
        timed += sum(r.seconds for r in result.passes[-1])
        if timed * (p + 2) / (p + 1) > seconds:
            break
    if trace:
        if log:
            log("traced set-up and pass 0")
        tracer = Tracer()
        origin = time.perf_counter()
        with tracer:
            inputs = wl.setup(seed)
        traced_setup = time.perf_counter() - origin
        result.traced = run_pass(wl.jobs(inputs, 0), log, tracer)
        traced_wall = traced_setup + sum(r.seconds for r in result.traced)
        untraced_wall = (statistics.median(setup_times)
                         + sum(r.seconds for r in result.passes[0]))
        result.layers, result.shares = layer_metrics(
            tracer, traced_wall, untraced_wall)
        outdir.mkdir(parents=True, exist_ok=True)
        tracer.dump(outdir / f"spans-{wl.name}-seed{seed}.json", origin,
                    workload=wl.name, seed=seed, wall_s=traced_wall)
    return result


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float
                  ) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Every per-layer metric of the spec, and each function's share of
    the traced run's self time, largest first."""
    fns = summarize(tracer.spans)
    m: dict[str, float] = {}
    for module, names in spec.TRACED_FUNCTIONS.items():
        m[f"{module}.self_s"] = 0.0
        for fn in names:
            agg = fns.get(f"{module}.{fn}", {"calls": 0, "busy_s": 0.0,
                                             "self_s": 0.0})
            for key in ("calls", "busy_s", "self_s"):
                m[f"{module}.{fn}.{key}"] = agg[key]
            m[f"{module}.self_s"] += agg["self_s"]
    fills = [s for s in tracer.spans if s.name == "fillball.fill_ball"]
    m["fillball.fill_ok_frac"] = (
        sum(1 for s in fills if s.error is None) / len(fills) if fills else 0.0)
    failed = [s for s in fills if s.error == "FillFailed"]
    steps = sum(s.steps for s in failed)
    busy = sum(s.end - s.start for s in failed)
    m["fillball.fill_ball.steps_failed"] = steps
    m["fillball.steps_per_s"] = steps / busy if busy else 0.0
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    shares = sorted(((name, agg["self_s"] / traced_wall)
                     for name, agg in fns.items()),
                    key=lambda kv: -kv[1])
    return m, shares
