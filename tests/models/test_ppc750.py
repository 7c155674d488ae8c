"""Tests for the PPC-750 out-of-order superscalar model (Section 5.2)."""


from types import SimpleNamespace

import pytest

from repro.core import Guard
from repro.isa.ppc import assemble
from repro.iss import PpcInterpreter
from repro.models.ppc750 import Ppc750Model, unit_routes
from repro.models.ppc750.model import UNIT_NAMES

from ..conftest import ppc_program


def build(body: str, data: str = "", **kwargs) -> Ppc750Model:
    kwargs.setdefault("perfect_memory", True)
    return Ppc750Model(assemble(ppc_program(body, data)), **kwargs)


def run(body: str, data: str = "", **kwargs) -> Ppc750Model:
    model = build(body, data, **kwargs)
    model.run()
    return model


IND = "\n".join(f"    li r{3 + (i % 8)}, {i}" for i in range(16))


class TestSuperscalar:
    def test_dual_dispatch_approaches_ipc_two(self):
        model = run(IND + "\n" + IND)
        assert model.kernel.stats.ipc > 1.5

    def test_in_order_single_issue_equivalent_is_slower(self):
        wide = run(IND)
        narrow = build(IND)
        narrow.fq.dispatch_width = 1
        narrow.cq.retire_width = 1
        narrow.run()
        assert narrow.cycles > wide.cycles

    def test_out_of_order_execution_hides_long_latency(self):
        """Independent work after a divide proceeds around it."""
        blocked = run("""
    li    r4, 100
    li    r5, 7
    divw  r6, r4, r5
    add   r7, r6, r6     ; depends on the divide
    add   r8, r7, r7
    add   r9, r8, r8
    add   r10, r9, r9
""")
        overlapped = run("""
    li    r4, 100
    li    r5, 7
    divw  r6, r4, r5
    li    r7, 1          ; independent: executes under the divide
    li    r8, 2
    li    r9, 3
    li    r10, 4
""")
        assert overlapped.cycles < blocked.cycles

    def test_figure2_both_dispatch_paths_used(self):
        model = build("""
    li    r4, 1
    add   r5, r4, r4     ; dependent: goes to the reservation station
    li    r6, 2          ; independent: direct into a unit
    add   r7, r5, r6
""")
        labels = []
        model.director.trace = lambda c, o, e: labels.append(e.label)
        model.run()
        assert any(l.startswith("direct-") for l in labels)
        assert any(l.startswith("station-") for l in labels)

    def test_unit_routing(self):
        from repro.isa.ppc import decode, isa as ppc_isa
        from repro.isa.ppc import encode

        add = decode(0, encode.x_form(ppc_isa.XO_ADD, 1, 2, 3))
        mul = decode(0, encode.x_form(ppc_isa.XO_MULLW, 1, 2, 3))
        assert unit_routes(add) == (ppc_isa.UNIT_IU2, ppc_isa.UNIT_IU1)
        assert unit_routes(mul) == (ppc_isa.UNIT_IU1,)


def _stub_osm(unit=None, rs_unit=None):
    instr = SimpleNamespace(unit=unit)
    return SimpleNamespace(operation=SimpleNamespace(instr=instr, rs_unit=rs_unit))


class TestDecodeTimeRoutes:
    """Each route and station guard is one comparison on a field fixed
    before the operation enters Q or R; the callable, the inline
    expression the fused stepper pastes, and ``unit_routes`` agree."""

    @staticmethod
    def _agree(guard, osm):
        pasted = eval(guard.__fuse_inline__, {}, {"osm": osm})
        return guard(osm), pasted

    @pytest.mark.parametrize("choice_index", [0, 1])
    @pytest.mark.parametrize("unit_name", UNIT_NAMES)
    def test_route_guard_matches_unit_routes(self, unit_name, choice_index):
        model = build("    li r3, 0")

        def routed(unit):
            routes = unit_routes(SimpleNamespace(unit=unit))
            return len(routes) > choice_index and routes[choice_index] == unit_name

        if not any(routed(unit) for unit in UNIT_NAMES):
            # no decoded unit takes this route: there is no guard to build
            with pytest.raises(ValueError):
                model._route_guard(unit_name, choice_index)
            return
        guard = model._route_guard(unit_name, choice_index)
        for unit in UNIT_NAMES + ("unknown",):
            called, pasted = self._agree(guard, _stub_osm(unit=unit))
            assert called is pasted is routed(unit), unit

    @pytest.mark.parametrize("unit_name", UNIT_NAMES)
    def test_station_guard_matches_rs_unit(self, unit_name):
        guard = build("    li r3, 0")._station_guard(unit_name)
        for rs_unit in UNIT_NAMES + (None,):
            called, pasted = self._agree(guard, _stub_osm(rs_unit=rs_unit))
            assert called is pasted is (rs_unit == unit_name)

    def test_every_dispatch_guard_declares_an_inline_comparison(self):
        spec = build("    li r3, 0").spec
        guards = [p for e in spec.edges for p in e.condition.primitives
                  if type(p) is Guard]
        inline = [p.label for p in guards
                  if getattr(p.predicate, "__fuse_inline__", None)]
        # 13 routes (6 direct, 1 IU1 alternate, 6 station) + 6 issue guards
        assert len(inline) == 19
        assert [p.label for p in guards if p.label not in inline] \
            == ["fetch-ready"]

    def test_fused_dispatch_steppers_paste_the_guards(self):
        states = build("    li r3, 0").spec.states
        q_source = states["Q"]._fused.__fused_source__
        assert "if not (osm.operation.instr.unit == 'lsu'):" in q_source
        assert "if not (osm.operation.rs_unit == 'lsu'):" \
            in states["R"]._fused.__fused_source__
        for name in "QR":
            assert "pred" not in states[name]._fused.__fused_source__


class TestInOrderDiscipline:
    def test_retirement_is_in_program_order(self):
        model = build("""
    li    r4, 20
    li    r5, 5
    divw  r6, r4, r5     ; long latency
    li    r7, 1          ; finishes first but must retire after
""")
        retired = []
        original = model.cq.on_release_commit

        def spy(osm, token, value):
            retired.append(osm.operation.seq)  # operation still attached here
            original(osm, token, value)

        model.cq.on_release_commit = spy
        model.run()
        assert retired == sorted(retired)

    def test_dispatch_is_in_program_order(self):
        model = build(IND)
        dispatched = []
        model.director.trace = (
            lambda c, o, e: dispatched.append(o.operation.seq)
            if e.label.startswith(("direct-", "station-")) else None
        )
        model.run()
        assert dispatched == sorted(dispatched)

    def test_wrong_path_ops_never_retire(self):
        source = ppc_program("""
    li    r4, 0
    li    r5, 8
    mtctr r5
loop:
    addi  r4, r4, 1
    bdnz  loop
    mr    r3, r4
""")
        iss = PpcInterpreter(assemble(source))
        iss.run()
        model = Ppc750Model(assemble(source), perfect_memory=True)
        model.run()
        assert model.kernel.stats.instructions == iss.steps
        assert model.fetch.wrong_path_fetched > 0  # speculation happened


class TestRenaming:
    def test_rename_buffer_exhaustion_stalls_dispatch(self):
        """Seven in-flight GPR writers exceed the six rename buffers."""
        model = run("""
    li    r4, 100
    li    r5, 7
    divw  r6, r4, r5     ; holds its buffer for 19 cycles
    li    r7, 1
    li    r8, 2
    li    r9, 3
    li    r10, 4
    li    r11, 5
    li    r12, 6
    li    r13, 7
""")
        # all results still correct despite the structural stalls
        values = model.oracle.interpreter.state.regs.values
        assert values[6] == 14 and values[13] == 7

    def test_waw_and_war_removed_by_renaming(self):
        model = run("""
    li    r4, 1
    li    r5, 10
    divw  r6, r5, r4     ; slow producer of r6
    mr    r7, r6         ; RAW: waits
    li    r6, 99         ; WAW on r6: renamed, need not wait
    mr    r3, r6
""")
        assert model.exit_code == 99

    def test_self_dependence_links_to_older_producer(self):
        """Regression: addi r3, r3, 1 chains must serialise correctly."""
        model = run("""
    li    r3, 0
    addi  r3, r3, 1
    addi  r3, r3, 1
    addi  r3, r3, 1
""")
        assert model.exit_code == 3


class TestBranchPrediction:
    def test_loop_branch_learns(self):
        model = run("""
    li    r4, 0
    li    r5, 40
loop:
    addi  r4, r4, 1
    cmpw  r4, r5
    blt   loop
    mr    r3, r4
""")
        assert model.predictor.accuracy > 0.85

    def test_mispredict_squashes_and_recovers(self):
        source = ppc_program("""
    li    r4, 0
    li    r6, 0
loop:
    addi  r4, r4, 1
    andi. r5, r4, 3
    beq   mult4          ; taken every 4th iteration: hard to predict
    addi  r6, r6, 1
    b     next
mult4:
    addi  r6, r6, 10
next:
    cmpwi r4, 20
    blt   loop
    mr    r3, r6
""")
        iss = PpcInterpreter(assemble(source))
        iss.run()
        model = Ppc750Model(assemble(source), perfect_memory=True)
        model.run()
        assert model.exit_code == iss.state.exit_code
        assert model.predictor.mispredictions > 0
        assert model.kernel.stats.instructions == iss.steps

    def test_blr_predicted_through_target_cache(self):
        model = run("""
    li    r6, 0
    li    r5, 6
    mtctr r5
calls:
    bl    helper
    bdnz  calls
    mr    r3, r6
    b     fin
helper:
    addi  r6, r6, 1
    blr
fin:
    mr    r3, r6
""")
        assert model.exit_code == 6
        assert model.predictor.btic.hits > 0


class TestQueues:
    def test_completion_queue_bounds_inflight(self):
        model = build(IND)
        max_cq = []
        model.director.trace = lambda c, o, e: max_cq.append(6 - model.cq.n_free)
        model.run()
        assert max(max_cq) <= 6

    def test_fetch_queue_bounds(self):
        model = build("""
    li    r4, 100
    li    r5, 7
    divw  r6, r4, r5
""" + IND)
        model.run()
        assert model.fq.n_free >= 0


class TestParameterisation:
    def test_single_issue_configuration(self):
        model = run(IND, dispatch_width=1, retire_width=1)
        wide = run(IND)
        assert model.cycles > wide.cycles

    def test_tiny_rename_pool_stalls_but_stays_correct(self):
        source = """
    li    r4, 1
    li    r5, 2
    li    r6, 3
    li    r7, 4
    add   r3, r6, r7
"""
        constrained = run(source, gpr_rename_buffers=1)
        roomy = run(source)
        assert constrained.exit_code == roomy.exit_code == 7
        assert constrained.cycles >= roomy.cycles

    def test_fetch_queue_size_bounds_occupancy(self):
        model = build(IND, fq_size=3)
        high_water = []
        model.director.trace = lambda c, o, e: high_water.append(3 - model.fq.n_free)
        model.run()
        assert max(high_water) <= 3

    def test_deep_queues_help_around_long_latency(self):
        body = """
    li    r4, 100
    li    r5, 7
    divw  r6, r4, r5
""" + IND
        shallow = run(body, fq_size=2, cq_size=2)
        deep = run(body, fq_size=8, cq_size=8)
        assert deep.cycles <= shallow.cycles
