"""Seeded inputs for the four benchmark workloads.

The run seed changes input data and access order only, never a kernel's
instruction text:

* MediaBench and SPEC-like kernels keep their assembly text; the seed is
  mixed into the fixed seeds of their ``lcg_words`` data tables, so the
  tables keep their value ranges and lengths but hold different values.
* The memory-stream kernel is generated here.  Its text is fixed; the
  seed picks the LCG constants, start line and so the walk order, which
  sit in a ``.data`` parameter table.
* Fleet jobs are small generated-mix jobs whose job seeds derive from the
  run seed, so every job of a run (and of the setup probes) has a
  distinct cache key.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Dict, Iterator, List, Tuple

MEDIA_NAMES = ("gsm_dec", "gsm_enc", "g721_dec", "g721_enc", "mpeg2_dec", "mpeg2_enc")
SPECLIKE_NAMES = ("lz_compress", "pointer_chase", "parser_loop")

#: 8192 lines of 32 bytes: 32x the 8 KB StrongARM dcache and twice the
#: 128 KB reach of its 32-entry, 4 KB-page dTLB
MEMSTREAM_LINES = 8192
MEMSTREAM_LINE_BYTES = 32
#: lines visited per program; a full-period LCG visits each at most once
MEMSTREAM_STEPS = 2048

MEMSTREAM_TEMPLATE = """
    ; memory-stream kernel: LCG-ordered walk over a 256 KB buffer, one
    ; load and one store per visited 32-byte line
    .text
_start:
    li   r8, buf
    li   r9, params
    ldr  r4, [r9]           ; LCG multiplier (Rs: fixed multiply latency)
    ldr  r5, [r9, #4]       ; LCG increment
    ldr  r1, [r9, #8]       ; start line
    ldr  r6, [r9, #12]      ; lines to visit
    li   r10, {mask}
    mov  r7, #0             ; checksum
walk:
    mla  r1, r1, r4, r5
    and  r1, r1, r10
    add  r3, r8, r1, lsl #5
    ldr  r2, [r3]
    add  r2, r2, r1
    str  r2, [r3]
    add  r7, r7, r2
    subs r6, r6, #1
    bne  walk
    add  r0, r7, r7, lsr #8
    and  r0, r0, #255
    swi  #0
    .data
params:
    .word {{a}}, {{c}}, {{start}}, {{steps}}
    ; buf: the {size} KB buffer, like .bss: zero until first touched and
    ; not part of the loaded image, so a build does not copy it
buf:
""".format(mask=MEMSTREAM_LINES - 1,
           size=MEMSTREAM_LINES * MEMSTREAM_LINE_BYTES // 1024)

#: generated-mix recipes of the fleet jobs (the fleet bench's mixes)
FLEET_MIXES = (
    {"alu": 6.0, "mem": 2.0, "mul": 1.0},
    {"alu": 2.0, "mem": 6.0, "mul": 1.0},
    {"alu": 3.0, "mem": 3.0, "mul": 3.0},
)
FLEET_MIX_SHAPE = {"block_length": 12, "footprint_words": 32}
FLEET_MODELS = ("strongarm", "ppc750")
#: loop trip counts that give both models' jobs about the same cost
#: (~35 ms), so job latency is one mode and its p50 is not balanced on
#: the gap between two
FLEET_ITERATIONS = {"strongarm": 16, "ppc750": 4}
#: fleet jobs a traced fleet run replays in-process for the sim layers
FLEET_REPLAY = 12
#: the generated-mix seed picks instructions, so it changes the text
SEED_CHANGES_TEXT = ("fleet-sweep",)

WORKLOAD_MODEL = {
    "strongarm-media": "strongarm",
    "ppc750-media": "ppc750",
    "strongarm-memstream": "strongarm",
}
MODEL_ISA = {"strongarm": "arm", "ppc750": "ppc"}


def mix_seed(fixed: int, run_seed: int) -> int:
    """Fold *run_seed* into a kernel's fixed table seed (31-bit result,
    the same in every process: sha256, not the salted ``hash()``)."""
    digest = hashlib.sha256(f"{fixed}:{run_seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@contextlib.contextmanager
def seeded_tables(run_seed: int) -> Iterator[None]:
    """While active, the kernel modules draw their data tables from
    seeds mixed with *run_seed* (same counts, same value ranges)."""
    from repro.workloads import mediabench, rng, speclike

    def lcg_words(seed, count, lo=0, hi=0xFFFFFFFF):
        return rng.lcg_words(mix_seed(seed, run_seed), count, lo, hi)

    modules = (mediabench, speclike)
    saved = [module.lcg_words for module in modules]
    for module in modules:
        module.lcg_words = lcg_words
    try:
        yield
    finally:
        for module, original in zip(modules, saved):
            module.lcg_words = original


def memstream_source(run_seed: int) -> str:
    """The memory-stream kernel for *run_seed*.

    The multiplier is 1 mod 4 and the increment odd, so the walk has full
    period over the power-of-two line count.  The multiplier stays in
    [4097, 8189], so the StrongARM early-terminating multiplier always
    sees a two-byte operand and the seed does not change the latency.
    """
    from repro.workloads.rng import lcg_words

    a_pick, c_pick, start = lcg_words(mix_seed(0x5EED, run_seed), 3, 0, 1022)
    return MEMSTREAM_TEMPLATE.format(
        a=4097 + 4 * a_pick, c=2 * c_pick + 1,
        start=start * 8 % MEMSTREAM_LINES, steps=MEMSTREAM_STEPS)


def programs(workload: str, run_seed: int) -> List[Tuple[str, str, str]]:
    """``[(name, model, assembly text)]`` of *workload*.  For
    ``fleet-sweep`` these are the first FLEET_REPLAY jobs' programs,
    which a traced run also simulates in-process."""
    if workload == "fleet-sweep":
        from repro.fleet.jobs import resolve_workload

        jobs = [fleet_job(run_seed, i) for i in range(FLEET_REPLAY)]
        return [(f"job{i}", job["model"],
                 resolve_workload(job["workload"], MODEL_ISA[job["model"]],
                                  job["seed"]))
                for i, job in enumerate(jobs)]
    model = WORKLOAD_MODEL[workload]
    return [(name, model, text) for name, text in _sim_programs(workload, run_seed)]


def _sim_programs(workload: str, run_seed: int) -> List[Tuple[str, str]]:
    if workload == "strongarm-memstream":
        return [("memstream", memstream_source(run_seed))]
    from repro.workloads import mediabench, speclike

    with seeded_tables(run_seed):
        if workload == "strongarm-media":
            return [(name, mediabench.arm_source(name)) for name in MEDIA_NAMES]
        if workload == "ppc750-media":
            return ([(name, mediabench.ppc_source(name)) for name in MEDIA_NAMES]
                    + [(name, speclike.ppc_source(name)) for name in SPECLIKE_NAMES])
    raise ValueError(f"unknown simulation workload {workload!r}")


def fleet_job(run_seed: int, index: int) -> Dict:
    """The *index*-th job of a fleet run: models alternate, mixes cycle,
    and the job seed is distinct for every (run seed, index)."""
    model = FLEET_MODELS[index % len(FLEET_MODELS)]
    mix = {**FLEET_MIXES[index % len(FLEET_MIXES)], **FLEET_MIX_SHAPE,
           "iterations": FLEET_ITERATIONS[model]}
    return {
        "model": model,
        "workload": {"kind": "generated", "mix": mix},
        "config": {},
        "seed": mix_seed(index, run_seed),
        "max_cycles": 2_000_000,
    }


def digests(progs: List[Tuple[str, str, str]]) -> Dict[str, str]:
    """sha256 of every program text, by program name."""
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, _model, text in progs}


def instruction_text(source: str) -> str:
    """The ``.text`` section of *source*: what the seed must not change."""
    return source.split(".data", 1)[0]
