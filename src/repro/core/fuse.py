"""Whole-model specialization: fused per-state step functions.

:mod:`repro.core.edgecompile` compiles one probe per edge; the remaining
per-transition overhead is the dispatch *around* those probes — the
plan walk in :meth:`~repro.core.osm.OperationStateMachine.try_transition`,
the transaction object bookkeeping, the virtual calls into the token
managers, and the post-commit state update.  This module removes all of
it: :func:`fuse_spec` generates **one Python function per state** whose
body is the concatenation of every outgoing edge's guard evaluation,
commit effects and OSM bookkeeping as straight-line code with all
constants (managers, tokens, slots, predicates, destination states)
pre-bound as parameter defaults.  The director's fast path dispatches
through ``State._fused`` when present and falls back to
``try_transition`` otherwise, so fused and unfused states interleave
freely within one model.

Two generation modes per edge, decided statically:

* **native** — every primitive's manager has a registered
  :class:`ManagerEmitter` for its *exact* class, so the manager probe
  *and* commit-hook bodies are inlined; the transaction object is
  replaced by local tentative-grant/release tracking.  Release/
  ReleaseMany never block native mode: tokens carry their manager, so
  the generic virtual ``release``/``on_release_commit`` calls are exact
  (with an inline fast path when every candidate manager shares one
  emitter-backed class).
* **transaction** — anything else (custom managers, custom primitives,
  edges pinned ``compile_mode="interpreted"``) probes through the
  per-edge compiled probe against ``osm._txn`` and commits via
  :meth:`Transaction.commit`, exactly like ``try_transition``.  The
  edge's leading :class:`Guard` primitives are tested first, before
  ``osm._txn`` is touched, and the compiled probe covers only the
  primitives after them — each guard still runs once per attempt, in
  primitive order (not on edges pinned to the interpreted plan).

**Inline declarations.**  A dynamic-ident callable or a guard predicate
may declare ``fn.__fuse_inline__ = "<expression over osm>"``: a
side-effect-free expression that evaluates to what ``fn(osm)`` returns.
The stepper then pastes the expression instead of calling ``fn``.  An
ident expression may only navigate data (names, attributes, subscripts,
literals); a guard expression may also compare with ``==``, ``!=``,
``is`` and ``is not``.  A model fixes a per-instruction choice at decode
time this way: a PPC-750 route guard is
``osm.operation.instr.unit == 'lsu'``.  The declaration must mirror the
body; transcheck rule TRV002 checks it (closure constants such as a
factory's ``unit_name`` are substituted first) and TRV001 checks that the
stepper pasted it where the guard belongs.  An expression outside the
admitted shape is not pasted; the site stays a call.

**Soundness.** A fused stepper must be bit-identical to
``try_transition`` over the same edge plan: every manager call, counter
increment, ``blocked_on`` note, commit-hook effect and error message is
mirrored from :mod:`repro.core.primitives` / :mod:`repro.core.manager` /
:meth:`repro.core.transaction.Transaction.commit`.  Which states may be
fused at all is decided by the effectcheck compilability report
(:mod:`repro.analysis.effects`): :func:`enable_fusion` certifies the
spec, pins unsafe edges via
:func:`~repro.core.edgecompile.apply_compilability`, and fuses only the
certified states.  Everything else — and any codegen failure — falls
back to the per-edge plan, with the outcome recorded per state in the
spec's :class:`~repro.core.edgecompile.CompileStats`.

Steppers bake per-edge constants (actions, ``on_enter`` hooks,
destination states); ``MachineSpec.edge()`` and ``apply_compilability``
invalidate ``State._fused`` so mutated specs regenerate lazily via
:func:`fuse_spec` — mutating edge callables in place after fusion is
outside the contract, exactly as for compiled probes.
"""

from __future__ import annotations

import ast
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from .edgecompile import apply_compilability, compile_edge_probe
from .errors import TokenError
from .manager import PoolManager, RegisterFileManager, ResetManager, SlotManager
from .primitives import (Allocate, AllocateMany, Discard, Guard, Inquire,
                         Release, ReleaseMany)


# --------------------------------------------------------------------------
# codegen scaffolding


class _Writer:
    """Indentation-tracking line collector for one generated function."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = 1

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    @contextmanager
    def block(self, header: str):
        self(header)
        self.indent += 1
        try:
            yield
        finally:
            self.indent -= 1


class _Codegen:
    """Constant binding (edgecompile's params-as-defaults idiom) plus a
    shared counter for fresh local names."""

    def __init__(self):
        self.env: Dict[str, Any] = {"TokenError": TokenError}
        self.params: List[str] = []
        self._bound: Dict[int, str] = {}
        self._n = 0

    def bind(self, hint: str, obj: Any) -> str:
        name = self._bound.get(id(obj))
        if name is not None and self.env[name] is obj:
            return name
        self._n += 1
        name = f"{hint}_{self._n}"
        self.env[name] = obj
        self.params.append(name)
        self._bound[id(obj)] = name
        return name

    def fresh(self, hint: str) -> str:
        self._n += 1
        return f"{hint}{self._n}"


def _is_literal(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, tuple):
        return all(_is_literal(v) for v in value)
    return False


def _expr(g: _Codegen, hint: str, value: Any) -> str:
    """A source expression for *value*: a literal when repr round-trips,
    else a bound parameter."""
    if _is_literal(value):
        return repr(value)
    return g.bind(hint, value)


#: AST node types an inline ident expression may contain — pure data
#: navigation only; anything that can call, comprehend or assign is out
_INLINE_SAFE_NODES = (
    ast.Expression, ast.Name, ast.Attribute, ast.Subscript, ast.Constant,
    ast.Tuple, ast.List, ast.Index, ast.Slice, ast.Load,
)

#: a guard's inline expression may also compare what it navigates to
_INLINE_GUARD_NODES = _INLINE_SAFE_NODES + (
    ast.Compare, ast.Eq, ast.NotEq, ast.Is, ast.IsNot,
)


def safe_inline_expr(expr: Any, guard: bool = False) -> bool:
    """True when *expr* is a syntactically side-effect-free expression.

    The ``__fuse_inline__`` contract only admits pure data navigation
    over ``osm`` — names, attribute chains, subscripts and literal
    containers, plus (for a *guard* predicate) the comparisons ``==``,
    ``!=``, ``is`` and ``is not``.  Calls, comprehensions, lambdas,
    boolean operators and anything else that could hide effects (or
    diverge from the tagged function's footprint) are rejected; the fuser
    then demotes the site to a dynamic call instead of pasting the
    expression (and transcheck rule TRV002 reports the broken
    declaration)."""
    if not isinstance(expr, str):
        return False
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        return False
    allowed = _INLINE_GUARD_NODES if guard else _INLINE_SAFE_NODES
    return all(isinstance(node, allowed) for node in ast.walk(tree))


def _call_expr(g: _Codegen, hint: str, fn: Any, guard: bool = False) -> str:
    """A source expression for ``fn(osm)``.

    A dynamic-ident callable or a guard predicate may declare
    ``__fuse_inline__`` — a side-effect-free source expression over
    ``osm`` that evaluates to the same value as calling it — and the
    stepper then pays zero call overhead on the hot path.  The
    declaration is a contract: the expression and the function body must
    stay in lockstep (the A/B determinism tests compare the fused and
    reference paths, and transcheck's TRV002 compares the footprints
    statically).  A tagged expression that fails :func:`safe_inline_expr`
    is not pasted — the site demotes to the dynamic call."""
    inline = getattr(fn, "__fuse_inline__", None)
    if inline is not None and safe_inline_expr(inline, guard=guard):
        return f"({inline})"
    return f"{g.bind(hint, fn)}(osm)"


def _avoid_cond(tok_expr: str, scalars: List[str], lists: List[str]) -> str:
    """Extra availability terms excluding tokens tentatively granted
    earlier in the same condition (mirrors ``txn._granted_ids``)."""
    parts = [f"{tok_expr} is not {s}" for s in scalars]
    parts += [f"{tok_expr} not in {l}" for l in lists]
    return " and ".join(parts)


class _Grant:
    __slots__ = ("mgr", "emitter", "var", "slot", "many", "conditional")

    def __init__(self, mgr, emitter, var, slot, many, conditional):
        self.mgr = mgr
        self.emitter = emitter
        self.var = var          # token var (scalar) or list var (many)
        self.slot = slot        # slot source expression
        self.many = many
        self.conditional = conditional  # dynamic ident: may be vacuous


class _Rel:
    __slots__ = ("many", "var", "mgr_var", "slot", "value_var", "dispatch")

    def __init__(self, many, var, mgr_var, slot, value_var, dispatch):
        self.many = many
        self.var = var          # token var (scalar) or (slot, tok, mgr, val) list var
        self.mgr_var = mgr_var
        self.slot = slot
        self.value_var = value_var  # None -> commit with literal None
        self.dispatch = dispatch    # (class, emitter) fast path or None


class _EdgeCtx:
    """Tentative-effect tracking for one native edge (the txn replacement)."""

    def __init__(self):
        self.grants: List[_Grant] = []
        self.releases: List[_Rel] = []
        self.discards: List[Tuple[Optional[str], str]] = []  # (slot expr or None, var)
        self.may_have_releases = False

    def avoid(self, mgr) -> Tuple[List[str], List[str]]:
        scalars = [gr.var for gr in self.grants if gr.mgr is mgr and not gr.many]
        lists = [gr.var for gr in self.grants if gr.mgr is mgr and gr.many]
        return scalars, lists

    def grant_count_expr(self) -> str:
        terms = []
        for gr in self.grants:
            if gr.many:
                terms.append(f"len({gr.var})")
            elif gr.conditional:
                terms.append(f"({gr.var} is not None)")
            else:
                terms.append("1")
        return " + ".join(terms) if terms else "0"


# --------------------------------------------------------------------------
# manager emitters


class ManagerEmitter:
    """Native code emitters for one *exact* token-manager class.

    Each method mirrors the corresponding TMI method or commit hook in
    :mod:`repro.core.manager` exactly — identical checks, counter
    updates and error messages.  Registration is by exact type (no MRO
    walk): a manager subclass gets native code only when it registers
    its own emitter via :func:`register_native_emitter`, otherwise its
    edges run in transaction mode.

    ``allocate``/``inquire``/``allocate_commit`` are always invoked with
    the concrete manager instance (the primitive names it), so they may
    bind its internals as constants.  ``release_check``/
    ``release_commit`` are invoked with a *runtime* manager expression
    (``token.manager``) guarded by an exact-type test, so they must use
    attribute access.
    """

    can_allocate = False
    can_inquire = False
    can_release = False

    def allocate(self, g: _Codegen, w: _Writer, mgr, out: str, ident_expr: str,
                 avoid: Tuple[List[str], List[str]]) -> None:
        """Assign the grantable token (or None) to local *out*."""
        raise NotImplementedError

    def allocate_commit(self, g: _Codegen, w: _Writer, mgr, tok: str) -> None:
        """``on_allocate_commit`` body (holder/buffer updates are emitted
        by the caller)."""
        raise NotImplementedError

    def inquire(self, g: _Codegen, w: _Writer, mgr, ident_expr: str,
                ctx: _EdgeCtx, fail: Callable[[], None]) -> None:
        """Emit the availability check; call *fail* on the refusal path."""
        raise NotImplementedError

    def release_check(self, g: _Codegen, w: _Writer, mgr_expr: str, tok: str,
                      fail: Callable[[], None]) -> None:
        raise NotImplementedError

    def release_commit(self, g: _Codegen, w: _Writer, mgr_expr: str, tok: str,
                       value_expr: str) -> None:
        raise NotImplementedError


class SlotManagerEmitter(ManagerEmitter):
    can_allocate = can_inquire = can_release = True

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        tok = g.bind("slot_tok", mgr.token)
        cond = f"{tok}.holder is None"
        extra = _avoid_cond(tok, *avoid)
        if extra:
            cond = f"{cond} and {extra}"
        w(f"{out} = {tok} if {cond} else None")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        tok = g.bind("slot_tok", mgr.token)
        with w.block(f"if {tok}.holder is not None:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        with w.block(f"if {tok} is not {mgr_expr}.token:"):
            w(f"raise TokenError('%s: release of foreign token %r'"
              f" % ({mgr_expr}.name, {tok}))")
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: %r does not hold %r'"
              f" % ({mgr_expr}.name, osm, {tok}))")
        with w.block(f"if {mgr_expr}.hold_release:"):
            fail()

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        w(f"{mgr_expr}.n_releases += 1")


class PoolManagerEmitter(ManagerEmitter):
    can_allocate = can_inquire = can_release = True

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        m = g.bind("mgr", mgr)
        toks = g.bind("pool", mgr.tokens)
        w(f"{out} = None")
        with w.block(f"if {m}._n_free != 0:"):
            tv = g.fresh("_pt")
            cond = f"{tv}.holder is None"
            extra = _avoid_cond(tv, *avoid)
            if extra:
                cond = f"{cond} and {extra}"
            with w.block(f"for {tv} in {toks}:"):
                with w.block(f"if {cond}:"):
                    w(f"{out} = {tv}")
                    w("break")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")
        w(f"{m}._n_free -= 1")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        m = g.bind("mgr", mgr)
        toks = g.bind("pool", mgr.tokens)
        nf = g.fresh("_nf")
        w(f"{nf} = {m}._n_free")
        with w.block(f"if {nf} == 0:"):
            fail()
        # n_free > len(txn.grants) -> available; otherwise scan for a free
        # token not tentatively granted in this condition
        tv = g.fresh("_pt")
        cond = f"{tv}.holder is None"
        extra = _avoid_cond(tv, *ctx.avoid(mgr))
        if extra:
            cond = f"{cond} and {extra}"
        with w.block(f"if {nf} <= {ctx.grant_count_expr()}:"):
            with w.block(f"if not any({cond} for {tv} in {toks}):"):
                fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        # token.manager is this manager by dispatch; the interpreted
        # foreign-token check is vacuously satisfied
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: %r does not hold %r'"
              f" % ({mgr_expr}.name, osm, {tok}))")
        with w.block(f"if {mgr_expr}.hold_release:"):
            fail()

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        w(f"{mgr_expr}.n_releases += 1")
        w(f"{mgr_expr}._n_free += 1")


class RegisterFileManagerEmitter(ManagerEmitter):
    can_allocate = can_inquire = can_release = True

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        m = g.bind("mgr", mgr)
        upd = g.bind("upd", mgr.update_tokens)
        wr = g.bind("writers", mgr._writers)
        mo = g.fresh("_mo")
        w(f"{out} = None")
        w(f"{mo} = {m}.max_outstanding")
        gate = (f"{ident_expr} is not None"
                f" and ({mo} is None or {m}._outstanding < {mo})"
                f" and len({wr}[{ident_expr}]) < {m}.updates_per_reg")
        with w.block(f"if {gate}:"):
            tv = g.fresh("_rt")
            cond = f"{tv}.holder is None"
            extra = _avoid_cond(tv, *avoid)
            if extra:
                cond = f"{cond} and {extra}"
            with w.block(f"for {tv} in {upd}[{ident_expr}]:"):
                with w.block(f"if {cond}:"):
                    w(f"{out} = {tv}")
                    w("break")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        wr = g.bind("writers", mgr._writers)
        w(f"{m}.n_allocates += 1")
        w(f"{m}._outstanding += 1")
        w(f"{wr}[{tok}.index].append(osm)")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        wr = g.bind("writers", mgr._writers)
        with w.block(f"if {ident_expr} is not None and {wr}[{ident_expr}]:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        # always accepts; the interpreted foreign-manager check is
        # vacuously satisfied under token.manager dispatch
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: invalid release of %r by %r'"
              f" % ({mgr_expr}.name, {tok}, osm))")

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        wv = g.fresh("_wl")
        w(f"{mgr_expr}.n_releases += 1")
        w(f"{mgr_expr}._outstanding -= 1")
        w(f"{wv} = {mgr_expr}._writers[{tok}.index]")
        with w.block(f"if osm in {wv}:"):
            w(f"{wv}.remove(osm)")
        if value_expr != "None":
            with w.block(f"if {value_expr} is not None:"):
                w(f"{mgr_expr}.backing.write({tok}.index, {value_expr})")


class ResetManagerEmitter(ManagerEmitter):
    can_allocate = can_inquire = can_release = True

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        w(f"{out} = None")  # the reset manager owns no allocatable tokens

    def allocate_commit(self, g, w, mgr, tok):  # pragma: no cover - unreachable
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        doomed = g.bind("doomed", mgr._doomed)
        with w.block(f"if id(osm) not in {doomed}:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        w(f"raise TokenError('%s manages no releasable tokens'"
          f" % ({mgr_expr}.name,))")

    def release_commit(self, g, w, mgr_expr, tok, value_expr):  # pragma: no cover
        w(f"{mgr_expr}.n_releases += 1")


#: exact manager class -> emitter
_EMITTERS: Dict[type, ManagerEmitter] = {}


def register_native_emitter(manager_class: type, emitter: ManagerEmitter) -> None:
    """Register native codegen for *manager_class* (exact type match).

    Model layers with custom manager subclasses call this at import time
    so their specs fuse to fully native steppers; unregistered classes
    simply keep their edges in transaction mode — never unsound, only
    slower.
    """
    _EMITTERS[manager_class] = emitter


register_native_emitter(SlotManager, SlotManagerEmitter())
register_native_emitter(PoolManager, PoolManagerEmitter())
register_native_emitter(RegisterFileManager, RegisterFileManagerEmitter())
register_native_emitter(ResetManager, ResetManagerEmitter())


# --------------------------------------------------------------------------
# per-edge emission


def _edge_native_blocker(edge) -> Optional[str]:
    """None when every primitive of *edge* can be emitted natively, else
    the reason the edge must run in transaction mode."""
    if getattr(edge, "compile_mode", "auto") == "interpreted":
        return "policy"
    for p in edge.condition.primitives:
        if not getattr(p, "compilable", True):
            return f"opt-out: {p!r}"
        t = type(p)
        if t is Guard or t is Discard or t is Release or t is ReleaseMany:
            continue
        if t is Allocate or t is AllocateMany:
            em = _EMITTERS.get(type(p.manager))
            if em is None or not em.can_allocate:
                return f"no native allocate for {type(p.manager).__name__}"
        elif t is Inquire:
            em = _EMITTERS.get(type(p.manager))
            if em is None or not em.can_inquire:
                return f"no native inquire for {type(p.manager).__name__}"
        else:
            return f"custom primitive {type(p).__name__}"
    return None


def _slot_candidates(spec) -> Tuple[Dict[str, List[Any]], List[Tuple[str, Any]]]:
    """Managers whose grants may fill each buffer slot, spec-wide."""
    exact: Dict[str, List[Any]] = {}
    many: List[Tuple[str, Any]] = []
    for edge in spec.edges:
        for p in edge.condition.primitives:
            t = type(p)
            if t is Allocate:
                mgrs = exact.setdefault(p.slot, [])
                if not any(m is p.manager for m in mgrs):
                    mgrs.append(p.manager)
            elif t is AllocateMany:
                if not any(s == p.slot and m is p.manager for s, m in many):
                    many.append((p.slot, p.manager))
    return exact, many


def _release_dispatch(slot_cands, slot: str):
    """``(class, emitter)`` fast path when every manager that can fill
    *slot* shares one emitter-backed exact class, else None (generic
    virtual dispatch — exact either way)."""
    exact, many = slot_cands
    mgrs = list(exact.get(slot, []))
    mgrs += [m for prefix, m in many if slot.startswith(prefix)]
    return _uniform_dispatch(mgrs)


def _release_many_dispatch(slot_cands, prefix: str):
    exact, many = slot_cands
    mgrs = [m for s, ms in exact.items() if s.startswith(prefix) for m in ms]
    mgrs += [m for s, m in many
             if s.startswith(prefix) or prefix.startswith(s)]
    return _uniform_dispatch(mgrs)


def _uniform_dispatch(mgrs):
    types = {type(m) for m in mgrs}
    if len(types) != 1:
        return None
    cls = types.pop()
    em = _EMITTERS.get(cls)
    if em is None or not em.can_release:
        return None
    return cls, em


def _emit_release_check(g, w, dispatch, mv, tok, slot_expr, fail):
    """Probe-phase release acceptance, dispatched on ``token.manager``."""
    def generic():
        with w.block(f"if not {mv}.release(osm, {tok}, osm._txn):"):
            fail()

    if dispatch is None:
        generic()
    else:
        cls, em = dispatch
        cname = g.bind("cls", cls)
        with w.block(f"if type({mv}) is {cname}:"):
            em.release_check(g, w, mv, tok, fail)
        with w.block("else:"):
            generic()


def _emit_release_hook(g, w, dispatch, mv, tok, value_expr):
    """Commit-phase ``on_release_commit``, dispatched on ``token.manager``."""
    if dispatch is None:
        w(f"{mv}.on_release_commit(osm, {tok}, {value_expr})")
    else:
        cls, em = dispatch
        cname = g.bind("cls", cls)
        with w.block(f"if type({mv}) is {cname}:"):
            em.release_commit(g, w, mv, tok, value_expr)
        with w.block("else:"):
            w(f"{mv}.on_release_commit(osm, {tok}, {value_expr})")


def _nat_guard(g, w, p, idx, ctx=None):
    with w.block(f"if not {_call_expr(g, f'g{idx}pred', p.predicate, guard=True)}:"):
        w("break")


def _nat_allocate(g, w, p, idx, ctx):
    em = _EMITTERS[type(p.manager)]
    m = g.bind("mgr", p.manager)
    slot = _expr(g, f"a{idx}slot", p.slot)
    out = g.fresh(f"a{idx}t")
    if p._dynamic:
        iv = g.fresh(f"a{idx}i")
        w(f"{iv} = {_call_expr(g, f'a{idx}ident', p.ident)}")
        w(f"{out} = None")
        with w.block(f"if {iv} is not None:"):
            em.allocate(g, w, p.manager, out, iv, ctx.avoid(p.manager))
            with w.block(f"if {out} is None:"):
                w(f"osm.blocked_on = ({m}, {iv})")
                w("break")
        conditional = True  # None past this point means vacuous, not refused
    else:
        ident = _expr(g, f"a{idx}ident", p.ident)
        em.allocate(g, w, p.manager, out, ident, ctx.avoid(p.manager))
        with w.block(f"if {out} is None:"):
            w(f"osm.blocked_on = ({m}, {ident})")
            w("break")
        conditional = False
    ctx.grants.append(_Grant(p.manager, em, out, slot, False, conditional))


def _nat_allocate_many(g, w, p, idx, ctx):
    em = _EMITTERS[type(p.manager)]
    m = g.bind("mgr", p.manager)
    slot = _expr(g, f"m{idx}slot", p.slot)
    idents_call = _call_expr(g, f"m{idx}idents", p.idents)
    lst = g.fresh(f"m{idx}l")
    ok = g.fresh(f"m{idx}ok")
    iv = g.fresh(f"m{idx}i")
    tv = g.fresh(f"m{idx}t")
    w(f"{lst} = []")
    w(f"{ok} = True")
    # the in-progress list participates in its own dedup scans
    ctx.grants.append(_Grant(p.manager, em, lst, slot, True, False))
    with w.block(f"for {iv} in {idents_call} or ():"):
        em.allocate(g, w, p.manager, tv, iv, ctx.avoid(p.manager))
        with w.block(f"if {tv} is None:"):
            w(f"osm.blocked_on = ({m}, {iv})")
            w(f"{ok} = False")
            w("break")
        w(f"{lst}.append({tv})")
    with w.block(f"if not {ok}:"):
        w("break")


def _nat_inquire(g, w, p, idx, ctx):
    em = _EMITTERS[type(p.manager)]
    m = g.bind("mgr", p.manager)

    def check(ident_expr, fail):
        em.inquire(g, w, p.manager, ident_expr, ctx, fail)
        w(f"{m}.n_inquiries += 1")

    def scalar_fail(ident_expr):
        def fail():
            w(f"osm.blocked_on = ({m}, {ident_expr})")
            w("break")
        return fail

    if p._dynamic:
        iv = g.fresh(f"i{idx}v")
        w(f"{iv} = {_call_expr(g, f'i{idx}ident', p.ident)}")
        with w.block(f"if {iv} is not None:"):
            with w.block(f"if not isinstance({iv}, (list, tuple)):"):
                check(iv, scalar_fail(iv))
            with w.block("else:"):
                ok = g.fresh(f"i{idx}ok")
                sv = g.fresh(f"i{idx}s")

                def loop_fail():
                    w(f"osm.blocked_on = ({m}, {sv})")
                    w(f"{ok} = False")
                    w("break")

                w(f"{ok} = True")
                with w.block(f"for {sv} in {iv}:"):
                    check(sv, loop_fail)
                with w.block(f"if not {ok}:"):
                    w("break")
    elif isinstance(p.ident, (list, tuple)):
        for j, element in enumerate(p.ident):
            expr = _expr(g, f"i{idx}e{j}", element)
            check(expr, scalar_fail(expr))
    else:
        expr = _expr(g, f"i{idx}ident", p.ident)
        check(expr, scalar_fail(expr))


def _nat_release(g, w, p, idx, ctx, slot_cands):
    slot = _expr(g, f"r{idx}slot", p.slot)
    dispatch = _release_dispatch(slot_cands, p.slot)
    tv = g.fresh(f"r{idx}t")
    mv = g.fresh(f"r{idx}m")
    vv = None
    w(f"{tv} = buffer.get({slot})")
    with w.block(f"if {tv} is not None:"):
        if ctx.may_have_releases:
            conds = [f"{tv} is {rel.var}" for rel in ctx.releases if not rel.many]
            conds += [f"any({tv} is _x[1] for _x in {rel.var})"
                      for rel in ctx.releases if rel.many]
            with w.block(f"if {' or '.join(conds)}:"):
                w("raise TokenError("
                  f"'double release of slot %r in one condition' % ({slot},))")
        w(f"{mv} = {tv}.manager")

        def fail():
            w(f"osm.blocked_on = ({mv}, {slot})")
            w("break")

        _emit_release_check(g, w, dispatch, mv, tv, slot, fail)
        if p.value is not None:
            vf = g.bind(f"r{idx}value", p.value)
            vv = g.fresh(f"r{idx}v")
            w(f"{vv} = {vf}(osm)")
    ctx.releases.append(_Rel(False, tv, mv, slot, vv, dispatch))
    ctx.may_have_releases = True


def _nat_release_many(g, w, p, idx, ctx, slot_cands):
    prefix = _expr(g, f"r{idx}prefix", p.prefix)
    dispatch = _release_many_dispatch(slot_cands, p.prefix)
    lst = g.fresh(f"r{idx}l")
    ok = g.fresh(f"r{idx}ok")
    sv = g.fresh(f"r{idx}s")
    tv = g.fresh(f"r{idx}t")
    mv = g.fresh(f"r{idx}m")
    w(f"{lst} = []")
    w(f"{ok} = True")
    with w.block(f"for {sv}, {tv} in list(buffer.items()):"):
        with w.block(f"if not {sv}.startswith({prefix}):"):
            w("continue")
        w(f"{mv} = {tv}.manager")

        def fail():
            w(f"osm.blocked_on = ({mv}, {sv})")
            w(f"{ok} = False")
            w("break")

        _emit_release_check(g, w, dispatch, mv, tv, sv, fail)
        if p.value is not None:
            vf = g.bind(f"r{idx}value", p.value)
            w(f"{lst}.append(({sv}, {tv}, {mv}, {vf}(osm, {tv})))")
        else:
            w(f"{lst}.append(({sv}, {tv}, {mv}, None))")
    with w.block(f"if not {ok}:"):
        w("break")
    ctx.releases.append(_Rel(True, lst, None, None, None, dispatch))
    ctx.may_have_releases = True


def _nat_discard(g, w, p, idx, ctx):
    if p.slot is not None:
        slot = _expr(g, f"d{idx}slot", p.slot)
        dv = g.fresh(f"d{idx}t")
        w(f"{dv} = buffer.get({slot})")
        ctx.discards.append((slot, dv))
    else:
        dv = g.fresh(f"d{idx}l")
        w(f"{dv} = list(buffer.items())")
        ctx.discards.append((None, dv))


def _emit_native_commit(g, w, ctx):
    """Apply tentative effects in :meth:`Transaction.commit` order:
    releases, then discards, then grants."""
    for rel in ctx.releases:
        if rel.many:
            sv = g.fresh("_cs")
            tv = g.fresh("_ct")
            mv = g.fresh("_cm")
            vv = g.fresh("_cv")
            with w.block(f"for {sv}, {tv}, {mv}, {vv} in {rel.var}:"):
                w(f"del buffer[{sv}]")
                w(f"{tv}.holder = None")
                _emit_release_hook(g, w, rel.dispatch, mv, tv, vv)
        else:
            with w.block(f"if {rel.var} is not None:"):
                w(f"del buffer[{rel.slot}]")
                w(f"{rel.var}.holder = None")
                _emit_release_hook(g, w, rel.dispatch, rel.mgr_var, rel.var,
                                   rel.value_var if rel.value_var else "None")
    for slot, var in ctx.discards:
        if slot is not None:
            with w.block(f"if {var} is not None:"):
                w(f"del buffer[{slot}]")
                w(f"{var}.holder = None")
                w(f"{var}.manager.on_discard(osm, {var})")
        else:
            sv = g.fresh("_ds")
            tv = g.fresh("_dt")
            with w.block(f"for {sv}, {tv} in {var}:"):
                w(f"del buffer[{sv}]")
                w(f"{tv}.holder = None")
                w(f"{tv}.manager.on_discard(osm, {tv})")
    for gr in ctx.grants:
        if gr.many:
            ix = g.fresh("_gi")
            tv = g.fresh("_gt")
            with w.block(f"for {ix}, {tv} in enumerate({gr.var}):"):
                w(f"{tv}.holder = osm")
                w(f"buffer[{gr.slot} + str({ix})] = {tv}")
                gr.emitter.allocate_commit(g, w, gr.mgr, tv)
        elif gr.conditional:
            with w.block(f"if {gr.var} is not None:"):
                w(f"{gr.var}.holder = osm")
                w(f"buffer[{gr.slot}] = {gr.var}")
                gr.emitter.allocate_commit(g, w, gr.mgr, gr.var)
        else:
            w(f"{gr.var}.holder = osm")
            w(f"buffer[{gr.slot}] = {gr.var}")
            gr.emitter.allocate_commit(g, w, gr.mgr, gr.var)


def _emit_native_edge(g, w, edge, slot_cands):
    ctx = _EdgeCtx()
    for idx, p in enumerate(edge.condition.primitives):
        t = type(p)
        if t is Guard:
            _nat_guard(g, w, p, idx, ctx)
        elif t is Allocate:
            _nat_allocate(g, w, p, idx, ctx)
        elif t is AllocateMany:
            _nat_allocate_many(g, w, p, idx, ctx)
        elif t is Inquire:
            _nat_inquire(g, w, p, idx, ctx)
        elif t is Release:
            _nat_release(g, w, p, idx, ctx, slot_cands)
        elif t is ReleaseMany:
            _nat_release_many(g, w, p, idx, ctx, slot_cands)
        elif t is Discard:
            _nat_discard(g, w, p, idx, ctx)
        else:  # unreachable behind _edge_native_blocker
            raise TypeError(f"non-native primitive {type(p).__name__}")
    _emit_native_commit(g, w, ctx)


def _leading_guards(edge) -> int:
    """How many of *edge*'s first primitives are plain guards a
    transaction-mode attempt tests before it touches ``osm._txn`` (none
    on an edge pinned to the interpreted plan)."""
    if getattr(edge, "compile_mode", "auto") == "interpreted":
        return 0
    n = 0
    for p in edge.condition.primitives:
        if type(p) is not Guard:
            break
        n += 1
    return n


def _emit_txn_edge(g, w, edge, spec, k):
    # A guard reads no token state, so testing the leading guards first
    # keeps primitive order and skips the transaction entirely when one
    # refuses; the compiled probe covers only the primitives after them.
    n = _leading_guards(edge)
    for idx, p in enumerate(edge.condition.primitives[:n]):
        _nat_guard(g, w, p, idx)
    probe = g.bind(f"e{k}probe", compile_edge_probe(edge, spec, start=n))
    tv = g.fresh(f"e{k}txn")
    w(f"{tv} = osm._txn")
    with w.block(f"if {tv}.dirty:"):
        w(f"{tv}.reset(osm)")
    with w.block(f"if not {probe}(osm, {tv}):"):
        with w.block(f"if {tv}.dirty:"):
            w(f"{tv}.reset(osm)")
        w("break")
    w(f"{tv}.commit()")


def _emit_bookkeeping(g, w, edge):
    """Post-commit OSM state update, mirroring ``try_transition``."""
    dst = edge.dst
    ename = g.bind("edge", edge)
    w(f"osm.current = {g.bind('dst', dst)}")
    w(f"osm.last_edge = {ename}")
    w("osm.n_transitions += 1")
    if edge.src.is_initial:
        w("osm.age = clock")
    if edge.action is not None:
        w(f"{g.bind('action', edge.action)}(osm)")
    if dst.on_enter is not None:
        w(f"{g.bind('on_enter', dst.on_enter)}(osm)")
    if dst.is_initial:
        with w.block("if buffer:"):
            w("raise TokenError('%s: returned to initial state still "
              "holding %s' % (osm.name, sorted(buffer)))")
        w("osm.operation = None")
        w("osm.age = -1")
    w(f"return {ename}")


def generate_stepper(state, spec) -> Callable:
    """Generate the fused ``step(osm, clock) -> Edge | None`` for *state*.

    Raises on any generation problem; callers (:func:`fuse_spec`) catch
    and fall back to the per-edge plan.
    """
    g = _Codegen()
    w = _Writer()
    slot_cands = _slot_candidates(spec)
    w("osm.blocked_on = None")
    w("buffer = osm.token_buffer")
    for k, edge in enumerate(state.out_edges):
        blocker = _edge_native_blocker(edge)
        with w.block("while True:"):
            if blocker is None:
                _emit_native_edge(g, w, edge, slot_cands)
                spec.compile_stats.record(edge, None)
            else:
                _emit_txn_edge(g, w, edge, spec, k)
            _emit_bookkeeping(g, w, edge)
    w("return None")
    sig = "".join(f", {n}={n}" for n in g.params)
    src = f"def _fused_step(osm, clock{sig}):\n" + "\n".join(w.lines)
    code = compile(src, f"<fused:{spec.name}.{state.name}>", "exec")
    exec(code, g.env)
    fn = g.env["_fused_step"]
    fn.__fused_source__ = src  # debugging / test introspection
    return fn


# --------------------------------------------------------------------------
# spec-level entry points


def fuse_spec(spec, states=None) -> int:
    """Generate fused steppers for *spec*'s states and install them on
    ``State._fused``.

    *states* restricts fusion to the named states (the certified-fusable
    set from effectcheck); others are recorded as policy fallbacks.  Any
    generation failure is caught, recorded in ``spec.compile_stats`` and
    degrades that state to the per-edge plan.  Returns the number of
    states fused.
    """
    stats = spec.compile_stats
    fused = 0
    for state in spec.states.values():
        if states is not None and state.name not in states:
            state._fused = None
            stats.record_state(state, "policy: not certified fusable")
            continue
        try:
            stepper = generate_stepper(state, spec)
        except Exception as exc:  # degrade, never break model build
            state._fused = None
            stats.record_state(state, f"codegen: {type(exc).__name__}: {exc}")
        else:
            state._fused = stepper
            stats.record_state(state, None)
            fused += 1
    return fused


def defuse_spec(spec) -> None:
    """Remove all fused steppers (A/B testing, post-mutation cleanup).

    Also the stats-reset hook for unfused model builds: clears the
    per-state fusion census and the fuse certificate, so counters from
    an earlier fused build never leak into an unfused one."""
    for state in spec.states.values():
        state._fused = None
    spec.compile_stats.states.clear()
    if getattr(spec, "fuse_certificate", None) is not None:
        spec.fuse_certificate = None


class _UnsafeEdges:
    def __init__(self, unsafe_edges):
        self.unsafe_edges = unsafe_edges


class _Uncertified:
    """Minimal compilability-report shape carrying only transcheck
    demotions, for :func:`apply_compilability`."""

    unsafe_edges: tuple = ()

    def __init__(self, uncertified_states):
        self.uncertified_states = uncertified_states


def _structure_key(spec) -> tuple:
    """Cache key for the effectcheck verdict: the spec's structure plus
    the identity (qualname) of every live edge callable and the
    ``__fuse_inline__`` expression it declares (closures made by one
    factory share a qualname but not their inline expressions)."""
    def qn(obj):
        return (getattr(obj, "__qualname__", None),
                getattr(obj, "__fuse_inline__", None))

    parts: List[Any] = [spec.name, tuple(getattr(spec, "lint_allow", ()))]
    for edge in spec.edges:
        prims = tuple(
            (type(p).__name__,
             type(getattr(p, "manager", None)).__name__,
             qn(getattr(p, "predicate", None)),
             qn(getattr(p, "ident", None)),
             qn(getattr(p, "idents", None)),
             qn(getattr(p, "value", None)))
            for p in edge.condition.primitives
        )
        parts.append((edge.qualname, edge.src.name, edge.dst.name,
                      tuple(edge.lint_allow), qn(edge.action), prims))
    parts.append(qn(getattr(spec, "analysis_rank_key", None)))
    return tuple(parts)


#: structure key -> (frozenset of fusable state names, tuple of unsafe edges)
_CERT_CACHE: Dict[tuple, Tuple[frozenset, tuple]] = {}

#: (structure key, generator fingerprint) -> tuple of (state, reason)
#: transcheck demotions — empty for a generator that certifies clean
_TRV_CACHE: Dict[tuple, tuple] = {}


def enable_fusion(spec) -> int:
    """Certify *spec* with effectcheck and fuse the certified states.

    The gated entry point used by model constructors: runs the effect
    analysis (cached per spec structure, so repeated model builds pay it
    once per process), pins statically-unsafe edges to the interpreted
    path via :func:`apply_compilability`, and fuses exactly the states
    the compilability report deems fusable.  The generated steppers are
    then translation-validated by transcheck
    (:mod:`repro.analysis.certify`, cached per structure + generator
    fingerprint): a state whose stepper fails certification is demoted
    back to the per-edge plan, with the fallback counted in
    ``spec.compile_stats``.  The surviving set is stamped on
    ``spec.fuse_certificate`` together with the generator fingerprint so
    ``repro certify`` can flag stale certificates (TRV008).  Analysis
    failures degrade to no fusion — the per-edge plan keeps working —
    and are recorded in ``spec.compile_stats``.  Returns the number of
    states fused.
    """
    try:
        key = _structure_key(spec)
        verdict = _CERT_CACHE.get(key)
        if verdict is None:
            # Imported lazily: repro.analysis imports the model registry,
            # which imports the models, which import repro.core — a
            # module-level import here would be circular.
            from ..analysis.effects import compilability_report, effects_spec
            report = effects_spec(spec)
            comp = compilability_report(spec, report)
            verdict = (frozenset(comp.fusable_states),
                       tuple(sorted(comp.unsafe_edges)))
            _CERT_CACHE[key] = verdict
        fusable, unsafe = verdict
        if unsafe:
            apply_compilability(spec, _UnsafeEdges(unsafe))
        fused = fuse_spec(spec, states=fusable)

        from ..analysis.certify import (certify_fused_states,
                                        generator_fingerprint)
        fingerprint = generator_fingerprint()
        trv_key = (key, fingerprint)
        uncertified = _TRV_CACHE.get(trv_key)
        if uncertified is None:
            uncertified = tuple(certify_fused_states(spec))
            _TRV_CACHE[trv_key] = uncertified
        if uncertified:
            fused -= apply_compilability(spec, _Uncertified(uncertified))
        spec.fuse_certificate = {
            "generator": fingerprint,
            "fused_states": sorted(
                name for name, state in spec.states.items()
                if state._fused is not None),
        }
        return fused
    except Exception as exc:  # analysis failure: degrade to unfused
        for state in spec.states.values():
            state._fused = None
            spec.compile_stats.record_state(
                state, f"analysis: {type(exc).__name__}: {exc}")
        return 0
