"""The simulation workloads: ``strongarm-media``, ``ppc750-media`` and
``strongarm-memstream``.

A run builds every program of the workload from its seed, then repeats
rounds until the run time is spent.  One round runs each program on the
OSM model and, interleaved, on the model's hand-coded baseline (the
SimpleScalar-style simulator for StrongARM, the SystemC-style one for
the PPC-750), each from a fresh build with empty caches.  Only ``run``
is timed, in process CPU seconds, with the garbage collector left on as
``repro run`` leaves it.  The figures of a round are summed over its
programs, and the run reports the median round.  Output checks run
after the timed rounds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from inputs import SEED_CHANGES_TEXT, digests, instruction_text, programs
from fleetload import percentile
from kits import decode_cache, kit, result
from spans import Tracer, span_cost

SETUP_REPS = 9
HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter
cpu_clock = time.process_time


class Item:
    """One program of a workload."""

    def __init__(self, index: int, name: str, model: str, source: str,
                 speed_ratio: Dict[str, float]):
        self.index = index
        self.name = name
        self.model = model
        self.source = source
        self.kit = kit(model)
        #: (cycles, instructions, transitions, exit code) of every round
        self.results: List[tuple] = []
        #: cycles of every baseline run
        self.baseline_results: List[int] = []
        #: model -> last measured (model run s / baseline run s), shared
        #: by the items of one workload
        self.speed_ratio: Dict[str, float] = speed_ratio


def workload_items(workload: str, seed: int) -> List[Item]:
    speed_ratio: Dict[str, float] = {}
    return [Item(i, name, model, source, speed_ratio)
            for i, (name, model, source) in enumerate(programs(workload, seed))]


# -- set-up -------------------------------------------------------------------

def measure_setup(workload: str, seed: int, reps: int = SETUP_REPS) -> Dict:
    """Time *reps* fresh processes from start to the first model built
    (imports, input generation, first-build certification and fusion
    codegen).  Each also reports its program digests, so the inputs are
    checked to be byte-identical across processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    setup, build_first, child_digests = [], [], []
    for _ in range(reps):
        start = clock()
        proc = subprocess.Popen([sys.executable, probe, workload, str(seed)],
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup.append(clock() - start)
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not ready:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        build_first.append(json.loads(ready)["build_first_s"])
        child_digests.append(json.loads(rest)["digests"])
    return {"setup_s": setup, "build_first_s": build_first,
            "digests": child_digests}


# -- measurement ------------------------------------------------------------

def run_item(item: Item, tracer: Optional[Tracer] = None,
             baseline: bool = True) -> Dict:
    """Assemble, build and run *item* on the OSM model and on its
    baseline.  With a *tracer*, every layer call is a span and each side
    runs once, the model first.

    Each ``run`` is a fresh build started from a collected heap (the
    collector stays on while it runs) and is timed in process CPU
    seconds, so neither the garbage left by earlier programs nor other
    tenants of the host move the figure.  The faster side is run as many
    times as it takes to be timed as long as the slower one, so both
    sides of the ratio carry about the same noise, and its runs are
    split before and after the slower side's run (the odd one first on
    odd programs), so a drift in host speed cancels in the ratio.  The
    split follows the last measured speed ratio of the model."""
    k = item.kit
    if tracer is not None:
        tracer.set_request(item.index)
    start = clock()
    if tracer is None:
        program = k.assemble(item.source)
        built = clock()
        model = k.build(program)
    else:
        with tracer.span("isa.assemble"):
            program = k.assemble(item.source)
        built = clock()
        with tracer.span("models.build"):
            model = k.build(program)
        instrument(tracer, model)
    ready = clock()
    row = {"build_s": ready - built, "cycles": 0, "run_s": 0.0,
           "baseline_cycles": 0, "baseline_s": 0.0}
    plan = ["model", "baseline"] if baseline else ["model"]
    ratio_s = item.speed_ratio.get(item.model)  # model s / baseline s
    if baseline and tracer is None and ratio_s:
        fast, slow = (("baseline", "model") if ratio_s > 1
                      else ("model", "baseline"))
        repeats = math.ceil(max(ratio_s, 1 / ratio_s))
        before = (repeats + item.index % 2) // 2
        plan = [fast] * before + [slow] + [fast] * (repeats - before)
    for side in plan:
        if side == "baseline":
            run_baseline(item, program, row, tracer)
            continue
        if row["cycles"]:
            model = k.build(program)
        gc.collect()
        wall, cpu = clock(), cpu_clock()
        stats = model.run()
        cpu, wall = cpu_clock() - cpu, clock() - wall
        if not row["cycles"]:
            row["latency_s"] = ready - start + wall
            if tracer is not None:
                row["model"], row["stats"] = model, stats
        row["cycles"] += stats.cycles
        row["run_s"] += cpu
        item.results.append(result(model, stats))
    if baseline:
        item.speed_ratio[item.model] = (
            row["run_s"] / plan.count("model")) / (
            row["baseline_s"] / plan.count("baseline"))
    return row


def run_baseline(item: Item, program, row: Dict,
                 tracer: Optional[Tracer] = None) -> None:
    sim = item.kit.baseline(program)
    gc.collect()
    cpu = cpu_clock()
    if tracer is None:
        sim.run()
    else:
        with tracer.span("baselines.run"):
            sim.run()
    row["baseline_s"] += cpu_clock() - cpu
    row["baseline_cycles"] += sim.cycles
    item.baseline_results.append(sim.cycles)


def run_round(items: List[Item], tracer: Optional[Tracer] = None,
              baseline: bool = True) -> Dict:
    rows = [run_item(item, tracer, baseline) for item in items]
    cycles = sum(row["cycles"] for row in rows)
    run_s = sum(row["run_s"] for row in rows)
    out = {"rows": rows, "cycles": cycles, "run_s": run_s,
           "cycles_per_s": cycles / run_s}
    if baseline:
        base_cps = (sum(row["baseline_cycles"] for row in rows)
                    / sum(row["baseline_s"] for row in rows))
        out["baseline_cycles_per_s"] = base_cps
        out["speedup"] = out["cycles_per_s"] / base_cps
    return out


def instrument(tracer: Tracer, model) -> None:
    """Wrap the layer entry points of a freshly built model."""
    from repro.de.module import HardwareModule

    tracer.wrap_main(model.kernel, "run", "core.kernel.run")
    tracer.wrap_main(model.director, "control_step", "core.director.control_step")
    for module in model.kernel.modules:
        for hook in ("begin_cycle", "end_cycle"):
            if getattr(type(module), hook) is not getattr(HardwareModule, hook):
                tracer.wrap_main(module, hook, "de." + hook)
    fetch = model.fetch
    for cache in (getattr(model, "dcache", None), fetch.icache):
        if cache is not None:
            tracer.wrap_main(cache, "access", f"memory.{cache.name}.access")
    for tlb in (getattr(model, "dtlb", None), getattr(fetch, "itlb", None)):
        if tlb is not None:
            tracer.wrap_main(tlb, "access", "memory.tlb.access")
    if hasattr(model, "oracle"):
        interpreter = model.oracle.interpreter
        tracer.wrap_main(interpreter, "step", "iss.step")
        tracer.wrap_main(interpreter, "fetch_decode", "iss.decode")
    else:
        tracer.wrap_main(fetch, "decode_at", "iss.decode")


# -- output checks ------------------------------------------------------------

def check_items(items: List[Item]) -> List[str]:
    """Check every program; returns one message per failed program."""
    failures = []
    for item in items:
        problems = []
        expected = item.results[0]
        if any(other != expected for other in item.results):
            problems.append(f"rounds disagree: {sorted(set(item.results))}")
        program = item.kit.assemble(item.source)
        iss = item.kit.iss(program)
        iss.run()
        if iss.state.exit_code != expected[3]:
            problems.append(f"exit code {expected[3]} != ISS {iss.state.exit_code}")
        reference = item.kit.build(program)
        reference.director.reference = True
        ref_result = result(reference, reference.run())
        if ref_result != expected:
            problems.append(f"fast path {expected} != reference loop {ref_result}")
        if len(set(item.baseline_results)) > 1:
            problems.append(f"baseline runs disagree: {sorted(set(item.baseline_results))}")
        if item.model == "strongarm" and any(
                cycles != expected[0] for cycles in item.baseline_results):
            problems.append(f"OSM cycles {expected[0]} != SimpleScalar-style "
                            f"{item.baseline_results[0]}")
        if problems:
            failures.append(f"{item.name}: " + "; ".join(problems))
    return failures


def check_inputs(workload: str, seed: int, child_digests: List[Dict]) -> List[str]:
    """The seed must change every program's data but no instruction
    text, and one seed must give byte-identical programs in every
    process."""
    failures = []
    mine = programs(workload, seed)
    other = {name: text for name, _model, text in programs(workload, seed + 1)}
    for name, _model, text in mine:
        if other[name] == text:
            failures.append(f"{name}: seeds {seed} and {seed + 1} give the same input")
        if (workload not in SEED_CHANGES_TEXT
                and instruction_text(other[name]) != instruction_text(text)):
            failures.append(f"{name}: the seed changed the instruction text")
    expected = digests(mine)
    for child in child_digests:
        if child != expected:
            failures.append("programs differ between processes for one seed")
            break
    return failures


# -- the run -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> Dict:
    """An untraced run: end-to-end metrics."""
    setup = measure_setup(workload, seed)
    items = workload_items(workload, seed)
    run_item(items[0])  # warm-up: first-build gate, codegen, heap growth
    rounds = []
    deadline = clock() + seconds
    while not rounds or clock() < deadline:
        rounds.append(run_round(items))

    def per_round(figure):
        return statistics.median(figure([row["latency_s"] for row in rnd["rows"]])
                                 for rnd in rounds)

    failures = (check_inputs(workload, seed, setup["digests"])
                + check_items(items))
    return {
        "attempted": len(items),
        "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setup["setup_s"]),
            "cycles_per_s": statistics.median(r["cycles_per_s"] for r in rounds),
            "speedup_vs_baseline": statistics.median(r["speedup"] for r in rounds),
            "jobs_per_s": per_round(lambda lat: len(lat) / sum(lat)),
            "job_latency_p50_s": per_round(lambda lat: percentile(lat, 50)),
            "job_latency_p90_s": per_round(lambda lat: percentile(lat, 90)),
            "baseline_cycles_per_s": statistics.median(
                r["baseline_cycles_per_s"] for r in rounds),
            "rounds": len(rounds),
        },
    }


def traced(items: List[Item], tracer: Tracer, setup: Dict) -> Dict:
    """One untraced and one traced round over *items*: per-layer metrics
    from the spans, exact counters from the models."""
    run_item(items[0], baseline=False)  # warm-up, as in measure()
    untraced = run_round(items, baseline=False)
    rnd = run_round(items, tracer=tracer)
    cost = span_cost()
    totals = tracer.totals()

    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def calls(*names):
        return sum(totals[n]["calls"] for n in names if n in totals)

    counters = {"cycles": 0, "transitions": 0, "instructions": 0,
                "dcache_accesses": 0, "dcache_hits": 0, "dtlb_accesses": 0,
                "dtlb_hits": 0, "block_hits": 0, "block_misses": 0}
    fused, fallbacks = {}, {}
    builds = []
    for row in rnd["rows"]:
        model, stats = row.pop("model"), row.pop("stats")
        counters["cycles"] += stats.cycles
        counters["transitions"] += stats.transitions
        counters["instructions"] += stats.instructions
        if getattr(model, "dcache", None) is not None:
            counters["dcache_accesses"] += model.dcache.stats.accesses
            counters["dcache_hits"] += model.dcache.stats.hits
        if getattr(model, "dtlb", None) is not None:
            counters["dtlb_accesses"] += model.dtlb.stats.accesses
            counters["dtlb_hits"] += model.dtlb.stats.hits
        cache = decode_cache(model)
        counters["block_hits"] += cache.block_hits
        counters["block_misses"] += cache.block_misses
        compile_stats = model.spec.compile_stats
        fused[model.spec.name] = compile_stats.fused_states
        fallbacks[model.spec.name] = compile_stats.fallbacks
        builds.append(row["build_s"])

    run_s = totals["core.kernel.run"]["total_s"]
    hooks = ("de.begin_cycle", "de.end_cycle")
    memory = ("memory.dcache.access", "memory.icache.access", "memory.tlb.access")
    layer_self = self_s("core.director.control_step", *hooks, *memory,
                        "iss.step", "iss.decode")
    probes = counters["block_hits"] + counters["block_misses"]
    metrics = {
        "core.kernel.run_s": run_s,
        "core.kernel.loop_overhead_s": self_s("core.kernel.run"),
        "trace.kernel_wrapper_s": cost * tracer.children("core.kernel.run"),
        "core.kernel.layer_share": layer_self / run_s,
        "core.kernel.cycles": counters["cycles"],
        "core.osm.transitions": counters["transitions"],
        "core.ipc": counters["instructions"] / counters["cycles"],
        "core.director.self_s": self_s("core.director.control_step"),
        "core.director.control_step_calls": calls("core.director.control_step"),
        "core.fuse.fused_states": sum(fused.values()),
        "core.edgecompile.probe_fallbacks": sum(fallbacks.values()),
        "de.hooks_s": self_s(*hooks),
        "de.hook_calls": calls(*hooks),
        "memory.dcache_access_s": self_s("memory.dcache.access"),
        "memory.icache_access_s": self_s("memory.icache.access"),
        "memory.tlb_access_s": self_s("memory.tlb.access"),
        "memory.access_s": self_s(*memory),
        "memory.dcache_accesses": counters["dcache_accesses"],
        "memory.dcache_hits": counters["dcache_hits"],
        "memory.dcache_hit_rate": ratio(counters["dcache_hits"],
                                        counters["dcache_accesses"]),
        "memory.dtlb_accesses": counters["dtlb_accesses"],
        "memory.dtlb_hits": counters["dtlb_hits"],
        "memory.dtlb_hit_rate": ratio(counters["dtlb_hits"],
                                      counters["dtlb_accesses"]),
        "iss.step_s": self_s("iss.step"),
        "iss.decode_s": self_s("iss.decode"),
        "iss.s": self_s("iss.step", "iss.decode"),
        "iss.block_hits": counters["block_hits"],
        "iss.block_hit_rate": ratio(counters["block_hits"], probes),
        "baselines.cycles_per_s": rnd["baseline_cycles_per_s"],
        "isa.assemble_s": totals["isa.assemble"]["total_s"],
        "models.build_repeat_s": statistics.median(builds),
        "trace.cycles_per_s_ratio": rnd["cycles_per_s"] / untraced["cycles_per_s"],
        "trace.span_cost_s": cost,
        "models.build_first_s": statistics.median(setup["build_first_s"]),
    }
    return metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
