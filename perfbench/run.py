"""The repo benchmark: seeded OSM simulation and fleet workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the benchmark imports ``repro`` from
``src/``.  Workloads (see BENCHMARK.json for why each exists):

* ``strongarm-media``     StrongARM model vs the SimpleScalar-style
                          baseline on the six MediaBench kernels (S1)
* ``ppc750-media``        PPC-750 model vs the SystemC-style baseline on
                          the MediaBench and SPEC-like kernels (S2)
* ``strongarm-memstream`` StrongARM model vs SimpleScalar-style on an
                          LCG-ordered walk over a 256 KB buffer
* ``fleet-sweep``         2-connection closed loop of small jobs against
                          a 2-worker fleet server, then a warm replay

End-to-end figures (``--trace 0``), all printed by name and unit; the
result line (the last, JSON) carries the ones BENCHMARK.json gates:
``setup_s``, ``speedup_vs_baseline`` and ``peak_rss_mb``.  Absolute
speeds swing by more than any allowed bound on a shared host, while the
interleaved ratio cancels that drift:

* ``setup_s``: median of several fresh set-ups.  Simulation workloads:
  a fresh process up to its first model built (imports, certification
  gate, fusion codegen).  ``fleet-sweep``: server start up to the first
  job result.
* ``cycles_per_s`` (and ``baseline_cycles_per_s``): simulated cycles
  per host CPU second, summed over a round's programs and timed around
  ``run`` only (median round).
  ``fleet-sweep``: simulated cycles of the cold pass per wall second.
* ``speedup_vs_baseline``: OSM cycles/s over the baseline's, interleaved
  per program (median round): S1 on ``strongarm-media``, S2 on
  ``ppc750-media``.  ``fleet-sweep``: the cold jobs' summed worker
  execution time over the cold pass's wall time, i.e. the speedup the
  service delivers over running the same jobs back to back.
* ``jobs_per_s``, ``job_latency_p50_s``, ``job_latency_p90_s``: a job is
  one program assembled, built and run, per round (simulation
  workloads; median round), or one fleet job from submit to result
  record over the cold pass (``fleet-sweep``).
* ``peak_rss_mb``: high-water RSS of this process; ``fleet-sweep`` adds
  that of the largest worker once per worker.

``error_rate`` (failed / attempted output checks) is printed by name and
carried by the ``attempted`` and ``failed`` fields of the result line.

A traced run (``--trace 1``) times each layer from outside by wrapping
its public entry points on the instance, reports per-layer self times
and exact work counters, the tracing overhead, and writes its spans to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("strongarm-media", "ppc750-media", "strongarm-memstream",
             "fleet-sweep")
#: units of the figures printed beside the BENCHMARK.json metrics
PRINTED_UNITS = {
    "cycles_per_s": "cycles/s", "baseline_cycles_per_s": "cycles/s",
    "jobs_per_s": "jobs/s", "job_latency_p50_s": "s", "job_latency_p90_s": "s",
    "rounds": "count", "iss.step_s": "s", "memory.tlb_access_s": "s",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def peak_rss_mb(workers: int = 0) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def host() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "system": platform.system()}


def stop_children() -> None:
    """Stop and reap every process this run started: pool workers still
    alive after an error, and the resource tracker that ``spawn`` starts
    once and would otherwise outlive this process by a moment."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import fleetload
    import sim
    from inputs import fleet_job
    from spans import Tracer

    if not trace:
        out = sim.measure(workload, seed, seconds)
        out["metrics"]["peak_rss_mb"] = peak_rss_mb()
        return out
    setup = sim.measure_setup(workload, seed)
    items = sim.workload_items(workload, seed)
    tracer = Tracer()
    layers = sim.traced(items, tracer, setup)
    jobs = [{"model": item.model,
             "workload": {"kind": "source", "text": item.source},
             "seed": item.index} for item in items]
    fleet = fleetload.probe(jobs, fleet_job(seed, -1), tracer)
    failures = (sim.check_inputs(workload, seed, setup["digests"])
                + sim.check_items(items) + fleet["failures"])
    return {"attempted": len(items), "failures": failures, "tracer": tracer,
            "layers": {**layers, **fleet["metrics"]}}


def run_fleet(seed: int, seconds: float, trace: bool) -> dict:
    import fleetload
    import sim
    from spans import Tracer

    tracer = Tracer() if trace else None
    out = fleetload.sweep(seed, seconds, tracer)
    out["metrics"]["peak_rss_mb"] = peak_rss_mb(workers=fleetload.WORKERS)
    if trace:
        # the first jobs again, in-process and traced, for the sim layers
        setup = sim.measure_setup("fleet-sweep", seed, reps=3)
        items = sim.workload_items("fleet-sweep", seed)
        layers = sim.traced(items, tracer, setup)
        out["failures"] += (sim.check_inputs("fleet-sweep", seed, setup["digests"])
                            + sim.check_items(items))
        out["attempted"] += len(items)
        out["layers"] = {**layers, **out["layers"]}
        out["tracer"] = tracer
    else:
        out["failures"] += sim.check_inputs("fleet-sweep", seed, [])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {**PRINTED_UNITS, **{m["name"]: m["unit"] for m in
                                 spec["end_to_end"] + spec["per_layer"]}}

    started = time.perf_counter()
    print(f"host: {json.dumps(host())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    # a TERM unwinds like an error, so the finally below still reaps
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload == "fleet-sweep":
            out = run_fleet(args.seed, args.seconds, bool(args.trace))
        else:
            out = run_sim(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    finally:
        stop_children()

    failed = min(len(out["failures"]), out["attempted"])
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    values = out["layers"] if args.trace else out["metrics"]
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units[name]}")
    print(f"error_rate {failed / out['attempted']!r} failed/attempted")
    if args.trace:
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans")
        out["tracer"].write(path, {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(f"elapsed_s {time.perf_counter() - started:.1f}")

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
