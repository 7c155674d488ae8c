"""Per-model entry points the benchmark calls: assembler, OSM model,
hand-coded baseline and functional ISS, all in their default (user)
configuration with empty caches."""

from __future__ import annotations

from typing import Callable, NamedTuple


class Kit(NamedTuple):
    isa: str
    assemble: Callable
    build: Callable
    baseline: Callable
    iss: Callable


def kit(model: str) -> Kit:
    if model == "strongarm":
        from repro.baselines.simplescalar import SimpleScalarArm
        from repro.isa.arm import assemble
        from repro.iss import ArmInterpreter
        from repro.models import strongarm

        def baseline(program):
            return SimpleScalarArm(
                program, icache=strongarm.default_icache(),
                dcache=strongarm.default_dcache(),
                itlb=strongarm.default_itlb(), dtlb=strongarm.default_dtlb())

        return Kit("arm", assemble, strongarm.StrongArmModel, baseline,
                   ArmInterpreter)
    if model == "ppc750":
        from repro.baselines.systemc_style import Ppc750SystemC
        from repro.isa.ppc import assemble
        from repro.iss import PpcInterpreter
        from repro.models.ppc750 import Ppc750Model

        return Kit("ppc", assemble, Ppc750Model, Ppc750SystemC, PpcInterpreter)
    raise ValueError(f"unknown model {model!r}")


def decode_cache(model):
    """The ISS decode cache a model fetches through."""
    iss = getattr(model, "iss", None)
    if iss is None:
        iss = model.oracle.interpreter
    return iss.decode_cache


def result(model, stats) -> tuple:
    """What the fast path must reproduce exactly."""
    return (stats.cycles, stats.instructions, stats.transitions, model.exit_code)
