"""Edge-condition compiler: specialise guard conditions at model-build time.

The paper's C++ implementation owes much of its speed to the fact that
*"the token machinery compiles away"* — each edge's conjunction of
primitives becomes straight-line code.  This module reproduces that step
for the Python interpreter: :func:`compile_condition` turns an edge's
:class:`~repro.core.primitives.Condition` into one generated function

    probe(osm, txn) -> bool

whose body is the concatenation of the primitives' probe bodies with all
per-primitive constants (managers, bound manager methods, slot names,
static identifiers, predicates) baked in as parameter defaults, so the
hot loop pays local-variable loads instead of attribute chains and
per-primitive dispatch.

Semantics are identical to calling ``p.probe(osm, txn)`` for each
primitive in declaration order — each emitter below mirrors the
corresponding ``probe`` body in :mod:`repro.core.primitives` exactly.
Primitives other than the five core types (``AllocateMany``,
``ReleaseMany``, user subclasses) are embedded as a generic
``p.probe(osm, txn)`` call, so custom primitives keep working unchanged.
Any failure during code generation falls back to an interpreted closure.

Fallbacks are no longer silent: :func:`compile_edge_probe` (the entry
point used by :meth:`repro.core.osm.State.probe_plan`) records every
compile outcome in the owning spec's :class:`CompileStats` — which edge
compiled, which fell back, and why ("policy" when the edge was pinned to
the interpreter by :attr:`~repro.core.osm.Edge.compile_mode`, "opt-out"
when a primitive sets ``compilable = False``, or the codegen error).
``repro bench`` surfaces the counts in its JSON row and the effectcheck
analyzer (:mod:`repro.analysis.effects`) reports each fallback edge as
an EFF008 diagnostic.  The effect analyzer's per-model compilability
report feeds back in through :func:`apply_compilability`, which pins
provably-unsafe edges to the interpreted path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import TokenError
from .primitives import (Allocate, AllocateMany, Condition, Discard, Guard,
                         Inquire, Release, ReleaseMany)


class CompileStats:
    """Per-spec record of edge-probe compile outcomes.

    One entry per edge qualname; re-recording an edge (plans are rebuilt
    after spec edits or :func:`apply_compilability`) replaces its entry,
    so the counts never double-count a rebuilt plan.
    """

    def __init__(self):
        #: edge qualname -> None (compiled) or fallback reason string
        self.edges: Dict[str, Optional[str]] = {}
        #: state name -> None (fused) or fallback reason string; recorded
        #: by :func:`repro.core.fuse.fuse_spec`
        self.states: Dict[str, Optional[str]] = {}

    def record(self, edge, reason: Optional[str] = None) -> None:
        self.edges[edge.qualname] = reason

    def record_state(self, state, reason: Optional[str] = None) -> None:
        self.states[state.name] = reason

    @property
    def compiled(self) -> int:
        return sum(1 for reason in self.edges.values() if reason is None)

    @property
    def fallbacks(self) -> int:
        return sum(1 for reason in self.edges.values() if reason is not None)

    @property
    def fused_states(self) -> int:
        return sum(1 for reason in self.states.values() if reason is None)

    @property
    def fused_fallback_states(self) -> int:
        return sum(1 for reason in self.states.values() if reason is not None)

    @property
    def fallback_states(self) -> List[Tuple[str, str]]:
        """``(state name, reason)`` for every unfused state."""
        return sorted(
            (name, reason)
            for name, reason in self.states.items()
            if reason is not None
        )

    @property
    def fallback_edges(self) -> List[Tuple[str, str]]:
        """``(edge qualname, reason)`` for every interpreted fallback."""
        return sorted(
            (qualname, reason)
            for qualname, reason in self.edges.items()
            if reason is not None
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "compiled": self.compiled,
            "fallbacks": self.fallbacks,
            "fallback_edges": [
                {"edge": qualname, "reason": reason}
                for qualname, reason in self.fallback_edges
            ],
            "fused_states": self.fused_states,
            "fused_fallback_states": self.fused_fallback_states,
            "fallback_states": [
                {"state": name, "reason": reason}
                for name, reason in self.fallback_states
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"CompileStats(compiled={self.compiled}, fallbacks={self.fallbacks})"


def _always_true(osm, txn) -> bool:
    return True


def _interpreted(primitives) -> Callable:
    """Fallback probe: call each primitive in order (seed semantics)."""
    def probe(osm, txn, _primitives=tuple(primitives)):
        for p in _primitives:
            if not p.probe(osm, txn):
                return False
        return True
    return probe


def compile_condition(condition: Condition) -> Callable:
    """A ``probe(osm, txn) -> bool`` function specialised for *condition*."""
    probe, _reason = _compile_or_fallback(condition.primitives)
    return probe


def compile_edge_probe(edge, spec=None, start: int = 0) -> Callable:
    """Compile *edge*'s guard condition, recording the outcome.

    The spec-aware entry point used by ``State.probe_plan``: behaves like
    :func:`compile_condition` but honours ``edge.compile_mode`` (edges
    pinned to ``"interpreted"`` — e.g. by :func:`apply_compilability` —
    skip codegen entirely) and records the outcome in
    ``spec.compile_stats`` so fallbacks are countable and reportable.

    *start* drops the condition's first *start* primitives: a fused
    stepper (:mod:`repro.core.fuse`) tests an edge's leading guards
    itself and probes only the rest.
    """
    primitives = edge.condition.primitives[start:]
    if getattr(edge, "compile_mode", "auto") == "interpreted":
        probe, reason = _interpreted_probe(primitives), "policy"
    else:
        probe, reason = _compile_or_fallback(primitives)
    if spec is not None:
        spec.compile_stats.record(edge, reason)
    return probe


def apply_compilability(spec, report) -> int:
    """Pin the edges/states *report* deems unsafe to the fallback paths.

    *report* is a :class:`repro.analysis.effects.CompilabilityReport`
    (duck-typed: anything with an ``unsafe_edges`` iterable of edge
    qualnames).  Matching edges get ``compile_mode = "interpreted"`` and
    their source states' probe plans are invalidated so the next
    ``probe_plan()`` rebuilds — and re-records — them.

    A report may additionally carry ``uncertified_states`` — an iterable
    of ``(state name, reason)`` pairs, as produced by transcheck
    (:mod:`repro.analysis.certify`) translation validation.  Each named
    state loses its fused stepper and is re-recorded in
    ``spec.compile_stats`` as a fused fallback with a ``certify:``
    reason, so the demotion is visible in the bench JSON row.

    Returns the number of edges pinned plus states demoted.
    """
    unsafe = set(getattr(report, "unsafe_edges", ()) or ())
    stats = getattr(spec, "compile_stats", None)
    changed = 0
    for edge in spec.edges:
        if edge.qualname in unsafe and edge.compile_mode != "interpreted":
            edge.compile_mode = "interpreted"
            edge.src._plan = None
            edge.src._fused = None  # fused steppers bake the plan too
            if stats is not None and stats.states.get(edge.src.name, "") is None:
                # the state was counted as fused; keep the census honest
                stats.record_state(edge.src, "policy: unsafe edge pinned")
            changed += 1
    for name, reason in getattr(report, "uncertified_states", ()) or ():
        state = spec.states.get(name)
        if state is None:
            continue
        state._fused = None
        if stats is not None:
            stats.record_state(state, f"certify: {reason}")
        changed += 1
    return changed


def _interpreted_probe(primitives) -> Callable:
    if not primitives:
        return _always_true
    return _interpreted(primitives)


def _compile_or_fallback(primitives):
    """``(probe, fallback_reason)``; *fallback_reason* is None when the
    primitives compiled to straight-line code."""
    if not primitives:
        return _always_true, None
    for p in primitives:
        if not getattr(p, "compilable", True):
            return _interpreted(primitives), f"opt-out: {p!r}"
    try:
        return _compile(primitives), None
    except Exception as exc:  # codegen failure: interpreted closure, counted
        return _interpreted(primitives), f"codegen: {type(exc).__name__}: {exc}"


def _compile(primitives) -> Callable:
    env: Dict[str, Any] = {"TokenError": TokenError}
    params: List[str] = []

    def bind(name: str, obj: Any) -> str:
        env[name] = obj
        params.append(name)
        return name

    body: List[str] = []
    emit = body.append
    # True once an earlier primitive may already have appended to
    # txn.releases — only then can a Release hit the double-release check
    may_have_releases = False

    for i, p in enumerate(primitives):
        t = type(p)
        if t is Allocate:
            alloc = bind(f"a{i}_alloc", p.manager.allocate)
            mgr = bind(f"a{i}_mgr", p.manager)
            slot = bind(f"a{i}_slot", p.slot)
            ident = bind(f"a{i}_ident", p.ident)
            if p._dynamic:
                emit(f"ident = {ident}(osm)")
                emit("if ident is not None:")
                pre = "    "
            else:
                emit(f"ident = {ident}")
                pre = ""
            emit(pre + f"token = {alloc}(osm, ident, txn)")
            emit(pre + "if token is None:")
            emit(pre + f"    osm.blocked_on = ({mgr}, ident)")
            emit(pre + "    return False")
            emit(pre + "txn.dirty = True")
            emit(pre + f"txn.grants.append(({slot}, token))")
            emit(pre + "txn._granted_ids.add(id(token))")
        elif t is Inquire:
            inq = bind(f"i{i}_inq", p.manager.inquire)
            mgr = bind(f"i{i}_mgr", p.manager)
            if p._dynamic:
                ident = bind(f"i{i}_ident", p.ident)
                emit(f"ident = {ident}(osm)")
                emit("if ident is not None:")
                emit("    if not isinstance(ident, (list, tuple)):")
                emit(f"        if not {inq}(osm, ident, txn):")
                emit(f"            osm.blocked_on = ({mgr}, ident)")
                emit("            return False")
                emit("        txn.dirty = True")
                emit(f"        txn.inquiries.append(({mgr}, ident))")
                emit(f"        {mgr}.n_inquiries += 1")
                emit("    else:")
                emit("        for single in ident:")
                emit(f"            if not {inq}(osm, single, txn):")
                emit(f"                osm.blocked_on = ({mgr}, single)")
                emit("                return False")
                emit("            txn.dirty = True")
                emit(f"            txn.inquiries.append(({mgr}, single))")
                emit(f"            {mgr}.n_inquiries += 1")
            elif isinstance(p.ident, (list, tuple)):
                idents = bind(f"i{i}_idents", tuple(p.ident))
                emit(f"for single in {idents}:")
                emit(f"    if not {inq}(osm, single, txn):")
                emit(f"        osm.blocked_on = ({mgr}, single)")
                emit("        return False")
                emit("    txn.dirty = True")
                emit(f"    txn.inquiries.append(({mgr}, single))")
                emit(f"    {mgr}.n_inquiries += 1")
            else:
                ident = bind(f"i{i}_ident", p.ident)
                emit(f"if not {inq}(osm, {ident}, txn):")
                emit(f"    osm.blocked_on = ({mgr}, {ident})")
                emit("    return False")
                emit("txn.dirty = True")
                emit(f"txn.inquiries.append(({mgr}, {ident}))")
                emit(f"{mgr}.n_inquiries += 1")
        elif t is Release:
            slot = bind(f"r{i}_slot", p.slot)
            emit(f"token = osm.token_buffer.get({slot})")
            emit("if token is not None:")
            if may_have_releases:
                emit("    if txn.releases and txn.is_tentatively_released(token):")
                emit("        raise TokenError(")
                emit(f"            'double release of slot %r in one condition' % ({slot},))")
            emit("    mgr = token.manager")
            emit("    if not mgr.release(osm, token, txn):")
            emit(f"        osm.blocked_on = (mgr, {slot})")
            emit("        return False")
            emit("    txn.dirty = True")
            if p.value is not None:
                value = bind(f"r{i}_value", p.value)
                emit(f"    txn.releases.append((token, {value}(osm), {slot}))")
            else:
                emit(f"    txn.releases.append((token, None, {slot}))")
            may_have_releases = True
        elif t is Discard:
            if p.slot is not None:
                slot = bind(f"d{i}_slot", p.slot)
                emit(f"token = osm.token_buffer.get({slot})")
                emit("if token is not None:")
                emit("    txn.dirty = True")
                emit(f"    txn.discards.append((token, {slot}))")
            else:
                emit("for _slot, _token in osm.token_buffer.items():")
                emit("    txn.dirty = True")
                emit("    txn.discards.append((_token, _slot))")
        elif t is AllocateMany:
            alloc = bind(f"m{i}_alloc", p.manager.allocate)
            mgr = bind(f"m{i}_mgr", p.manager)
            slot = bind(f"m{i}_slot", p.slot)
            idents = bind(f"m{i}_idents", p.idents)
            emit(f"for _i, ident in enumerate({idents}(osm) or ()):")
            emit(f"    token = {alloc}(osm, ident, txn)")
            emit("    if token is None:")
            emit(f"        osm.blocked_on = ({mgr}, ident)")
            emit("        return False")
            emit("    txn.dirty = True")
            emit(f"    txn.grants.append(({slot} + str(_i), token))")
            emit("    txn._granted_ids.add(id(token))")
        elif t is ReleaseMany:
            prefix = bind(f"r{i}_prefix", p.prefix)
            if p.value is not None:
                value = bind(f"r{i}_value", p.value)
                value_expr = f"{value}(osm, _token)"
            else:
                value_expr = "None"
            emit("for _slot, _token in list(osm.token_buffer.items()):")
            emit(f"    if _slot.startswith({prefix}):")
            emit("        if not _token.manager.release(osm, _token, txn):")
            emit("            osm.blocked_on = (_token.manager, _slot)")
            emit("            return False")
            emit("        txn.dirty = True")
            emit(f"        txn.releases.append((_token, {value_expr}, _slot))")
            may_have_releases = True
        elif t is Guard:
            pred = bind(f"g{i}_pred", p.predicate)
            emit(f"if not {pred}(osm):")
            emit("    return False")
        else:  # AllocateMany, ReleaseMany, custom primitives
            probe = bind(f"p{i}_probe", p.probe)
            emit(f"if not {probe}(osm, txn):")
            emit("    return False")
            may_have_releases = True  # the generic probe may append releases
    emit("return True")

    sig = "".join(f", {n}={n}" for n in params)
    src = f"def _probe(osm, txn{sig}):\n" + "\n".join("    " + ln for ln in body)
    exec(compile(src, "<edge-condition>", "exec"), env)
    probe = env["_probe"]
    probe.__probe_source__ = src  # transcheck introspection (TRV003)
    probe.__probe_primitives__ = tuple(primitives)  # ... and TRV001
    return probe
