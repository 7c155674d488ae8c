"""Fast-path vs reference-loop determinism.

The director carries a cached rank order, per-step stamps and
version-skip marks across control steps; the kernels fuse the per-cycle
loop.  All of it is pure mechanism: these tests run whole workloads under
both the fast path and the original reference scheduling loop
(``director.reference = True``) and require bit-identical results —
cycle counts, instruction counts, transitions, exit codes and the full
rendered pipeview trace.
"""

import pytest

from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc
from repro.models.ppc750 import Ppc750Model
from repro.models.strongarm import StrongArmModel
from repro.reporting.pipeview import PipelineTracer
from repro.workloads import mediabench, speclike


def _run(model, reference):
    model.director.reference = reference
    tracer = PipelineTracer(model)
    stats = model.run(2_000_000)
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "transitions": stats.transitions,
        "exit_code": model.exit_code,
        "pipeview": tracer.render(count=200),
    }


@pytest.mark.parametrize("name", ["gsm_dec", "g721_enc"])
def test_strongarm_fast_path_matches_reference(name):
    source = mediabench.arm_source(name)
    fast = _run(StrongArmModel(asm_arm(source)), reference=False)
    reference = _run(StrongArmModel(asm_arm(source)), reference=True)
    assert fast == reference


@pytest.mark.parametrize("name", ["gsm_dec"])
def test_ppc750_fast_path_matches_reference(name):
    source = mediabench.ppc_source(name)
    fast = _run(Ppc750Model(asm_ppc(source)), reference=False)
    reference = _run(Ppc750Model(asm_ppc(source)), reference=True)
    assert fast == reference


@pytest.mark.parametrize("name", ["gsm_dec"])
def test_strongarm_fused_matches_unfused(name):
    # the fused per-state steppers are mechanism only: switching them
    # off must not change a single observable
    source = mediabench.arm_source(name)
    fused = _run(StrongArmModel(asm_arm(source), fused=True), reference=False)
    plain = _run(StrongArmModel(asm_arm(source), fused=False), reference=False)
    assert fused == plain


@pytest.mark.parametrize("name", ["gsm_dec"])
def test_ppc750_fused_matches_unfused(name):
    source = mediabench.ppc_source(name)
    fused = _run(Ppc750Model(asm_ppc(source), fused=True), reference=False)
    plain = _run(Ppc750Model(asm_ppc(source), fused=False), reference=False)
    assert fused == plain


def test_ppc750_back_to_back_builds_match_reference_and_unfused():
    # Many builds in one process, as a benchmark run makes them: state
    # that leaked from one build into the next would make a later fused
    # run differ from the reference and unfused runs of its program.
    sources = [mediabench.ppc_source("g721_dec"),
               speclike.ppc_source("pointer_chase"),
               speclike.ppc_source("lz_compress")]
    expected = {}
    for round_ in range(2):
        for index, source in enumerate(sources):
            fast = _run(Ppc750Model(asm_ppc(source)), reference=False)
            if round_ == 0:
                expected[index] = _run(Ppc750Model(asm_ppc(source)),
                                       reference=True)
                plain = _run(Ppc750Model(asm_ppc(source), fused=False),
                             reference=False)
                assert plain == expected[index]
            assert fast == expected[index]


def test_fused_steppers_actually_installed():
    model = StrongArmModel(asm_arm(mediabench.arm_source("gsm_dec")))
    assert model.spec.compile_stats.fused_states > 0
    plain = StrongArmModel(asm_arm(mediabench.arm_source("gsm_dec")),
                           fused=False)
    assert plain.spec.compile_stats.fused_states == 0


def test_reference_flag_actually_switches_loops():
    # guard against the reference loop silently becoming unreachable:
    # the fast path maintains a cached order, the reference loop does not
    model = StrongArmModel(asm_arm(mediabench.arm_source("gsm_dec")))
    model.director.reference = True
    model.run(2_000_000)
    assert model.director._order == []  # fast-path cache never populated
