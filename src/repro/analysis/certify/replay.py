"""Symbolic replay of generated OSM fast-path code (TRV001 / TRV003).

The replayer validates a generated artifact — a fused per-state stepper
(:func:`repro.core.fuse.generate_stepper`) or a compiled edge probe
(:func:`repro.core.edgecompile.compile_edge_probe`) — against the
*reference* transition semantics, without executing either.  It works in
two halves:

1. **Extraction** (:class:`_Extractor`): the artifact's source (captured
   on the function object as ``__fused_source__`` / ``__probe_source__``)
   is parsed and flattened into a linear sequence of *effect events* —
   guard calls, blocking refusals, buffer updates, holder flips, counter
   bumps, transaction appends, transition bookkeeping.  Bound constants
   (managers, slots, edge objects, predicates) are resolved through the
   function's ``__defaults__`` so events carry the real objects, and the
   token-buffer / transaction aliases are tracked through local
   assignments.  Every statement must classify: any write or call the
   extractor cannot place in its vocabulary raises
   :class:`ExtractionError`, which the caller reports as a conservative
   certification failure — unknown effects are treated as wrong, never
   ignored.

2. **Matching**: an *expected* event sequence is derived independently
   from the edge's ``condition.primitives`` plus the reference ordering
   rules — probe effects in primitive order, then commitment in
   :meth:`Transaction.commit` order (releases, discards, grants), then
   ``try_transition`` bookkeeping (current/last_edge/n_transitions/age,
   action, ``on_enter``, the initial-state buffer check).  Matching uses
   small regex-like combinators (:class:`_One`, :class:`_Zone`,
   :class:`_Rep`) with backtracking; manager-internal bookkeeping
   (free-counters, writer lists, ready bitmaps) is admitted through
   bounded zones that still *require* the reference counter updates.

A fused edge may legitimately compile to either the native inline form
or the transactional form (probe + ``txn.commit``); the replayer accepts
whichever of the two expected shapes matches.

Soundness caveat (documented in ``docs/static-analysis.md``): the replay
is *linear* — it checks that every effect the generated code can perform
appears in the reference order with the reference operands, and that
every refusal path escapes the attempt (``break`` / ``return False``),
but it does not model arbitrary branch interleavings.  The generators
only emit straight-line code with single-level refusal branches, so the
linearization is faithful for everything they produce today; code
outside that shape fails extraction rather than passing silently.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ...core.primitives import (
    Allocate,
    AllocateMany,
    Discard,
    Guard,
    Inquire,
    Release,
    ReleaseMany,
)
from .astnorm import parse_function

__all__ = [
    "ExtractionError",
    "replay_probe",
    "replay_stepper",
]

#: wildcard for matcher operands
ANY = object()

#: builtins the generators call for bookkeeping, never for effects
_PURE_BUILTINS = frozenset({
    "any", "enumerate", "id", "isinstance", "len", "list", "sorted", "str",
    "tuple", "type",
})

#: effect-free methods (reads / local-list plumbing)
_IGNORED_METHODS = frozenset({"get", "items", "keys", "values", "startswith"})


class ExtractionError(Exception):
    """Generated code contains a statement the replayer cannot classify."""


def _callable_key(fn) -> Tuple:
    """Identity key robust to bound-method re-creation: accessing
    ``primitive.probe`` twice yields two distinct bound-method objects
    wrapping the same function and receiver."""
    return (getattr(fn, "__func__", fn), getattr(fn, "__self__", None))


# --------------------------------------------------------------------------
# name resolution


def _param_env(node: ast.FunctionDef, fn) -> Dict[str, Tuple]:
    """Bindings for the generated function's parameters.

    Generated artifacts bind every captured constant as a keyword default
    (``def _fused_step(osm, clock, mgr_1=mgr_1, ...)``), so the live
    function's ``__defaults__`` align with the tail of the parameter
    list; the leading positional parameters are the runtime inputs.
    """
    names = [a.arg for a in node.args.args]
    defaults = fn.__defaults__ or ()
    if len(defaults) > len(names):
        raise ExtractionError("more defaults than parameters")
    env: Dict[str, Tuple] = {}
    for name, value in zip(names[len(names) - len(defaults):], defaults):
        env[name] = ("obj", value)
    return env


class _Extractor:
    """Flattens a generated function body into effect events."""

    def __init__(self, env: Dict[str, Tuple]):
        self.env = dict(env)
        self.events: List[Tuple] = []

    def emit(self, *event) -> None:
        self.events.append(tuple(event))

    # -- resolution --------------------------------------------------------

    def _resolve(self, node) -> Optional[Tuple]:
        """Binding for *node*: ("obj", o) | ("osm",) | ("clock",) |
        ("txn",) | ("buffer",) | ("local",) | None (unresolvable)."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        return None

    def _is_kind(self, node, kind: str) -> bool:
        binding = self._resolve(node)
        return binding is not None and binding[0] == kind

    def _obj(self, node):
        binding = self._resolve(node)
        if binding is not None and binding[0] == "obj":
            return binding[1]
        return None

    def _slot(self, node):
        """The slot-string operand of a buffer/txn operation, or ANY."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        value = self._obj(node)
        if isinstance(value, str):
            return value
        return ANY

    # -- statements --------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for index, stmt in enumerate(body):
            before = len(self.events)
            self._stmt(stmt)
            # Refusal structure: a blocking assignment must be followed,
            # in the same suite, by an escape from the attempt — break,
            # ``return False`` or an ok-flag clear.  This is what makes
            # a refused probe actually short-circuit.
            if any(e[0] == "blocked" for e in self.events[before:]) and \
                    self._direct_blocked(stmt):
                if not any(self._is_escape(s) for s in body[index + 1:]):
                    raise ExtractionError(
                        "blocking refusal not followed by an escape")

    @staticmethod
    def _direct_blocked(stmt) -> bool:
        """True when *stmt* itself is the ``osm.blocked_on = (...)``
        assignment (nested refusals are checked at their own level)."""
        return (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and stmt.targets[0].attr == "blocked_on")

    @staticmethod
    def _is_escape(stmt) -> bool:
        if isinstance(stmt, ast.Break):
            return True
        if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Constant):
            return stmt.value.value is False
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is False):
            return True
        return False

    def _stmt(self, stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self._scan(stmt.value)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._augassign(stmt)
        elif isinstance(stmt, ast.Delete):
            self._delete(stmt)
        elif isinstance(stmt, ast.If):
            before = len(self.events)
            self._scan(stmt.test)
            inline = self._inline_guard(stmt.test)
            if inline is not None:
                self.emit("guard_inline", inline)
            if len(self.events) > before:
                # a refusing call in the test: the body must escape
                if not any(self._is_escape(s) for s in stmt.body):
                    raise ExtractionError("guarded test without an escape")
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._scan(stmt.iter)
            self._mark_local(stmt.target)
            self.run(stmt.body)
            if stmt.orelse:
                raise ExtractionError("for-else in generated code")
        elif isinstance(stmt, ast.Raise):
            # the exception expression is message formatting, not effects
            self.emit("raise")
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Pass)):
            pass
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        else:
            raise ExtractionError(
                f"unclassifiable statement {type(stmt).__name__}")

    def _inline_guard(self, test) -> Optional[str]:
        """The normalized dump of a pasted guard expression when *test*
        is ``not (<call-free expression over osm>)``, else None."""
        if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
            return None
        nodes = list(ast.walk(test.operand))
        if any(isinstance(node, ast.Call) for node in nodes):
            return None
        if not any(isinstance(node, ast.Name) and self._is_kind(node, "osm")
                   for node in nodes):
            return None
        return ast.dump(test.operand)

    def _mark_local(self, target) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = ("local",)
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                self._mark_local(element)
        else:
            raise ExtractionError("unsupported loop target")

    def _return(self, stmt) -> None:
        value = stmt.value
        if value is None or (isinstance(value, ast.Constant)
                             and value.value is None):
            self.emit("return_none")
        elif isinstance(value, ast.Constant) and value.value is False:
            pass  # refusal escape — checked structurally, not an effect
        elif isinstance(value, ast.Constant) and value.value is True:
            self.emit("return_true")
        else:
            obj = self._obj(value)
            if obj is None:
                raise ExtractionError("return of an unresolvable value")
            self.emit("return_obj", obj)

    def _assign(self, stmt) -> None:
        if len(stmt.targets) != 1:
            raise ExtractionError("chained assignment")
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            self._assign_name(target.id, stmt.value)
        elif isinstance(target, ast.Attribute):
            self._assign_attr(target, stmt.value)
        elif isinstance(target, ast.Subscript):
            self._scan(stmt.value)
            if self._is_kind(target.value, "buffer"):
                self.emit("buf_set", self._slot(target.slice))
            else:
                # manager-internal array bookkeeping (ready bitmaps etc.)
                self.emit("sub_set")
        else:
            raise ExtractionError("unsupported assignment target")

    def _assign_name(self, name: str, value) -> None:
        if isinstance(value, ast.Attribute) and self._is_kind(value.value, "osm"):
            if value.attr == "token_buffer":
                self.env[name] = ("buffer",)
                return
            if value.attr == "_txn":
                self.env[name] = ("txn",)
                return
        if isinstance(value, ast.Name):
            self.env[name] = self._resolve(value) or ("local",)
            return
        self._scan(value)
        self.env[name] = ("local",)

    def _assign_attr(self, target, value) -> None:
        attr = target.attr
        if attr == "holder":
            if isinstance(value, ast.Constant) and value.value is None:
                self.emit("holder_none")
            elif self._is_kind(value, "osm"):
                self.emit("holder_osm")
            else:
                raise ExtractionError("holder assigned a foreign value")
            return
        if self._is_kind(target.value, "osm"):
            if attr == "blocked_on":
                if isinstance(value, ast.Constant) and value.value is None:
                    self.emit("blocked_clear")
                elif isinstance(value, ast.Tuple) and value.elts:
                    self.emit("blocked", self._obj(value.elts[0]))
                else:
                    raise ExtractionError("unrecognized blocked_on value")
            elif attr == "current":
                obj = self._obj(value)
                if obj is None:
                    raise ExtractionError("current assigned unresolvable state")
                self.emit("set_current", obj)
            elif attr == "last_edge":
                obj = self._obj(value)
                if obj is None:
                    raise ExtractionError("last_edge assigned unresolvable edge")
                self.emit("set_last_edge", obj)
            elif attr == "age":
                if self._is_kind(value, "clock"):
                    self.emit("set_age_clock")
                elif _const_int(value) == -1:
                    self.emit("age_reset")
                else:
                    raise ExtractionError("age assigned unrecognized value")
            elif attr == "operation":
                if isinstance(value, ast.Constant) and value.value is None:
                    self.emit("op_none")
                else:
                    raise ExtractionError("operation assigned non-None")
            else:
                raise ExtractionError(f"write to osm.{attr}")
            return
        if self._is_kind(target.value, "txn") and attr == "dirty":
            return  # transaction-internal flag
        raise ExtractionError(f"unclassifiable attribute write .{attr}")

    def _augassign(self, stmt) -> None:
        target = stmt.target
        if not isinstance(target, ast.Attribute):
            raise ExtractionError("augmented assignment to non-attribute")
        if isinstance(stmt.op, ast.Add):
            sign = "+"
        elif isinstance(stmt.op, ast.Sub):
            sign = "-"
        else:
            raise ExtractionError("non-additive augmented assignment")
        if not (isinstance(stmt.value, ast.Constant) and stmt.value.value == 1):
            raise ExtractionError("counter bump by a non-1 amount")
        attr = target.attr
        if attr == "n_transitions" and self._is_kind(target.value, "osm"):
            self.emit("n_transitions")
        elif attr == "n_inquiries":
            self.emit("inq_count", self._obj(target.value))
        else:
            self.emit("ctr", attr, sign)

    def _delete(self, stmt) -> None:
        if len(stmt.targets) != 1:
            raise ExtractionError("multi-target delete")
        target = stmt.targets[0]
        if isinstance(target, ast.Subscript) and self._is_kind(target.value, "buffer"):
            self.emit("buf_del", self._slot(target.slice))
        else:
            raise ExtractionError("delete outside the token buffer")

    # -- expressions -------------------------------------------------------

    def _scan(self, node) -> None:
        """Post-order scan emitting events for every classified call."""
        if isinstance(node, ast.Lambda):
            raise ExtractionError("lambda in generated code")
        for child in ast.iter_child_nodes(node):
            self._scan(child)
        if isinstance(node, ast.Call):
            self._call(node)

    def _call(self, call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            binding = self._resolve(func)
            if binding is None:
                if func.id in _PURE_BUILTINS:
                    return
                raise ExtractionError(f"call to unknown name {func.id}")
            if binding[0] != "obj":
                raise ExtractionError(f"call to non-constant {func.id}")
            self._bound_call(binding[1], call)
            return
        if isinstance(func, ast.Attribute):
            self._method_call(func, call)
            return
        raise ExtractionError("call through an unclassifiable callee")

    def _bound_call(self, obj, call) -> None:
        args = call.args
        if len(args) == 1 and self._is_kind(args[0], "osm"):
            self.emit("call1", obj)
        elif len(args) == 2 and self._is_kind(args[0], "osm"):
            if self._is_kind(args[1], "txn"):
                self.emit("txn_probe", _callable_key(obj))
            else:
                self.emit("call2", obj)
        elif (len(args) == 3 and self._is_kind(args[0], "osm")
              and self._is_kind(args[2], "txn")):
            owner = getattr(obj, "__self__", None)
            name = getattr(getattr(obj, "__func__", obj), "__name__", "")
            if owner is None:
                raise ExtractionError("3-arg call to an unbound callable")
            self.emit("mgr_call", name, owner)
        else:
            raise ExtractionError("call with an unrecognized signature")

    def _method_call(self, func, call) -> None:
        method = func.attr
        if method in _IGNORED_METHODS:
            return
        if method == "append":
            base = func.value
            if (isinstance(base, ast.Attribute)
                    and self._is_kind(base.value, "txn")):
                self._txn_append(base.attr, call)
                return
            if any(self._is_kind(a, "osm") for a in call.args):
                self.emit("writers_append")
                return
            if isinstance(base, ast.Name) and self._is_kind(base, "local"):
                return  # building a local list
            raise ExtractionError("append to an unclassifiable list")
        if method == "add":
            base = func.value
            if (isinstance(base, ast.Attribute)
                    and self._is_kind(base.value, "txn")
                    and base.attr == "_granted_ids"):
                return
            raise ExtractionError("set add outside the transaction")
        if method == "remove":
            if any(self._is_kind(a, "osm") for a in call.args):
                self.emit("writers_remove")
                return
            raise ExtractionError("remove of a non-osm value")
        if method in ("reset", "is_tentatively_released"):
            if self._is_kind(func.value, "txn"):
                return  # transaction-internal reset / pure query
            raise ExtractionError(f"{method} outside the transaction")
        if method == "commit":
            if self._is_kind(func.value, "txn"):
                self.emit("txn_commit")
                return
            raise ExtractionError("commit outside the transaction")
        if method == "release":
            self.emit("release_call")
            return
        if method == "on_discard":
            self.emit("on_discard")
            return
        if method == "on_release_commit":
            self.emit("on_release_commit")
            return
        if method == "write":
            base = func.value
            if isinstance(base, ast.Attribute) and base.attr == "backing":
                self.emit("backing_write")
                return
            raise ExtractionError("write call outside a register backing")
        raise ExtractionError(f"unclassifiable method call .{method}")

    def _txn_append(self, collection: str, call) -> None:
        arg = call.args[0] if len(call.args) == 1 else None
        elts = arg.elts if isinstance(arg, ast.Tuple) else []
        if collection == "grants":
            slot = self._slot(elts[0]) if elts else ANY
            self.emit("t_grant", slot)
        elif collection == "inquiries":
            mgr = self._obj(elts[0]) if elts else None
            self.emit("t_inq", mgr)
        elif collection == "releases":
            slot = self._slot(elts[2]) if len(elts) > 2 else ANY
            self.emit("t_rel", slot)
        elif collection == "discards":
            slot = self._slot(elts[1]) if len(elts) > 1 else ANY
            self.emit("t_disc", slot)
        else:
            raise ExtractionError(f"append to txn.{collection}")


def _const_int(node) -> Optional[int]:
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return value if isinstance(value, int) else None


# --------------------------------------------------------------------------
# matchers


def _event_matches(event: Tuple, kind: str, args: Tuple) -> bool:
    if event[0] != kind:
        return False
    for position, want in enumerate(args, start=1):
        if want is ANY:
            continue
        got = event[position] if len(event) > position else None
        if isinstance(want, (str, tuple)):
            if got != want:
                return False
        elif got is not want:
            return False
    return True


class _One:
    """Exactly one event of the given kind/operands."""

    def __init__(self, kind: str, *args):
        self.kind = kind
        self.args = args

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        if start < len(events) and _event_matches(events[start], self.kind, self.args):
            yield start + 1


class _Zone:
    """A run of events drawn from *allowed* templates; *required* (when
    given) is an any-of set at least one consumed event must satisfy."""

    def __init__(self, allowed, minimum: int = 0, required=None):
        self.allowed = allowed
        self.minimum = minimum
        self.required = required

    def _ok(self, event) -> bool:
        return any(_event_matches(event, k, a) for k, a in self.allowed)

    def _satisfied(self, consumed) -> bool:
        if not self.required:
            return True
        return any(
            _event_matches(event, k, a)
            for event in consumed
            for k, a in self.required
        )

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        end = start
        while True:
            if end - start >= self.minimum and self._satisfied(events[start:end]):
                yield end
            if end < len(events) and self._ok(events[end]):
                end += 1
            else:
                return


class _Rep:
    """*lo* to *hi* repetitions of a sub-sequence."""

    def __init__(self, sequence, lo: int, hi: int):
        self.sequence = sequence
        self.lo = lo
        self.hi = hi

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        seen = set()

        def expand(position: int, count: int) -> Iterator[int]:
            if count >= self.lo and position not in seen:
                seen.add(position)
                yield position
            if count < self.hi:
                for nxt in _seq_ends(self.sequence, events, position):
                    yield from expand(nxt, count + 1)

        yield from expand(start, 0)


def _seq_ends(matchers, events: Sequence[Tuple], start: int) -> Iterator[int]:
    if not matchers:
        yield start
        return
    head, tail = matchers[0], matchers[1:]
    for middle in head.ends(events, start):
        yield from _seq_ends(tail, events, middle)


def _matches(matchers, events: Sequence[Tuple]) -> bool:
    return any(end == len(events) for end in _seq_ends(matchers, events, 0))


# --------------------------------------------------------------------------
# expected sequences


def _inlined(fn, guard: bool = False) -> bool:
    from ...core.fuse import safe_inline_expr
    inline = getattr(fn, "__fuse_inline__", None)
    return inline is not None and safe_inline_expr(inline, guard=guard)


def _guard_expected(p) -> "_One":
    """A guard test: the pasted ``__fuse_inline__`` comparison when the
    predicate declares a safe one, else one call of the predicate."""
    if _inlined(p.predicate, guard=True):
        tree = ast.parse(p.predicate.__fuse_inline__, mode="eval")
        return _One("guard_inline", ast.dump(tree.body))
    return _One("call1", p.predicate)


def _slot_arg(slot) -> Any:
    return slot if isinstance(slot, str) else ANY


#: templates admitted inside a release-commit zone — the reference
#: counter vocabulary of the manager emitters, nothing else
_REL_COMMIT_ALLOWED = (
    ("ctr", ("n_releases", "+")), ("ctr", ("_n_free", "+")),
    ("ctr", ("_outstanding", "-")), ("writers_remove", ()),
    ("backing_write", ()), ("sub_set", ()), ("on_release_commit", ()),
)
#: any-of evidence the release actually committed
_REL_COMMIT_REQUIRED = (
    ("ctr", ("n_releases", "+")), ("ctr", ("_n_free", "+")),
    ("on_release_commit", ()),
)
#: templates admitted inside a grant-commit zone
_GRANT_ALLOWED = (
    ("ctr", ("n_allocates", "+")), ("ctr", ("_n_free", "-")),
    ("ctr", ("_outstanding", "+")), ("writers_append", ()), ("sub_set", ()),
)
#: any-of evidence the grant was counted
_GRANT_REQUIRED = (
    ("ctr", ("n_allocates", "+")), ("ctr", ("_n_free", "-")),
)


def _release_probe_zone(p, many: bool) -> _Zone:
    allowed = [("raise", ()), ("release_call", ()), ("blocked", (None,))]
    if p.value is not None:
        allowed.append(("call2" if many else "call1", (p.value,)))
    return _Zone(allowed, minimum=1, required=(("blocked", (None,)),))


def _native_expected(edge) -> Optional[List]:
    """Matchers for the native inline form, or None when the condition
    contains a primitive the native emitter cannot express."""
    primitives = edge.condition.primitives if edge.condition is not None else []
    sequence: List = []
    grants: List[Tuple[bool, Any]] = []
    releases: List[Tuple[bool, Any]] = []
    discards: List = []
    for p in primitives:
        kind = type(p)
        if kind is Guard:
            sequence.append(_guard_expected(p))
        elif kind is Allocate:
            if p._dynamic and not _inlined(p.ident):
                sequence.append(_One("call1", p.ident))
            sequence.append(_One("blocked", p.manager))
            grants.append((False, p))
        elif kind is AllocateMany:
            if not _inlined(p.idents):
                sequence.append(_One("call1", p.idents))
            sequence.append(_One("blocked", p.manager))
            grants.append((True, p))
        elif kind is Inquire:
            group = [_One("blocked", p.manager), _One("inq_count", p.manager)]
            if p._dynamic:
                if not _inlined(p.ident):
                    sequence.append(_One("call1", p.ident))
                sequence.append(_Rep(group, 2, 2))
            elif isinstance(p.ident, (list, tuple)):
                n = len(p.ident)
                sequence.append(_Rep(group, n, n))
            else:
                sequence.extend(group)
        elif kind is Release:
            sequence.append(_release_probe_zone(p, many=False))
            releases.append((False, p))
        elif kind is ReleaseMany:
            sequence.append(_release_probe_zone(p, many=True))
            releases.append((True, p))
        elif kind is Discard:
            discards.append(p)
        else:
            return None  # custom primitive: never emitted natively
    # commit, in Transaction.commit order: releases, discards, grants
    for many, p in releases:
        slot = ANY if many else _slot_arg(p.slot)
        sequence.append(_One("buf_del", slot))
        sequence.append(_One("holder_none"))
        sequence.append(_Zone(_REL_COMMIT_ALLOWED, minimum=1,
                              required=_REL_COMMIT_REQUIRED))
    for p in discards:
        sequence.append(_One("buf_del", _slot_arg(p.slot) if p.slot is not None else ANY))
        sequence.append(_One("holder_none"))
        sequence.append(_One("on_discard"))
    for many, p in grants:
        slot = ANY if many else _slot_arg(p.slot)
        sequence.append(_One("holder_osm"))
        sequence.append(_One("buf_set", slot))
        sequence.append(_Zone(_GRANT_ALLOWED, minimum=1,
                              required=_GRANT_REQUIRED))
    sequence.extend(_bookkeeping_expected(edge))
    return sequence


class _TailProbe:
    """One ``txn_probe`` event whose probe covers exactly *primitives* —
    the ones left after the hoisted guards.  That the probe translates
    them faithfully is TRV003's business: it replays the edge compiler's
    probe for every such tail."""

    def __init__(self, primitives):
        self.primitives = primitives

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        if start < len(events) and events[start][0] == "txn_probe":
            fn, owner = events[start][1]
            if owner is None and _probe_covers(fn, self.primitives):
                yield start + 1


def _probe_covers(probe, primitives) -> bool:
    """True when *probe* came from the edge compiler for exactly
    *primitives* (compared by identity, in order)."""
    from ...core.edgecompile import _always_true, _interpreted

    if probe is _always_true:
        return not primitives
    if getattr(probe, "__code__", None) is _interpreted(()).__code__:
        covered = probe.__defaults__[0]
    else:
        covered = getattr(probe, "__probe_primitives__", None)
    return covered is not None and len(covered) == len(primitives) \
        and all(a is b for a, b in zip(covered, primitives))


def _hoistable_guards(edge) -> int:
    """Leading plain guards a transaction-mode attempt may test before
    the probe (none on an edge pinned to the interpreted plan).  Derived
    here from the edge alone, not taken from the fuser, like every other
    expectation of the replay."""
    if getattr(edge, "compile_mode", "auto") == "interpreted":
        return 0
    n = 0
    for p in edge.condition.primitives:
        if type(p) is not Guard:
            break
        n += 1
    return n


def _txn_expected(edge, hoisted: int) -> List:
    """Matchers for the transactional form: the first *hoisted* guards,
    a probe over the remaining primitives, commit, bookkeeping."""
    primitives = edge.condition.primitives
    return [_guard_expected(p) for p in primitives[:hoisted]] + [
        _TailProbe(primitives[hoisted:]), _One("txn_commit")] + \
        _bookkeeping_expected(edge)


def _bookkeeping_expected(edge) -> List:
    """The ``try_transition`` post-commit tail, in reference order."""
    sequence = [
        _One("set_current", edge.dst),
        _One("set_last_edge", edge),
        _One("n_transitions"),
    ]
    if edge.src.is_initial:
        sequence.append(_One("set_age_clock"))
    if edge.action is not None:
        sequence.append(_One("call1", edge.action))
    if edge.dst.on_enter is not None:
        sequence.append(_One("call1", edge.dst.on_enter))
    if edge.dst.is_initial:
        sequence.extend([_One("raise"), _One("op_none"), _One("age_reset")])
    sequence.append(_One("return_obj", edge))
    return sequence


def _probe_expected(primitives) -> Optional[List]:
    """Matchers for a compiled probe (:mod:`repro.core.edgecompile`) of
    *primitives*."""
    sequence: List = []
    for p in primitives:
        kind = type(p)
        if kind is Guard:
            sequence.append(_One("call1", p.predicate))
        elif kind is Allocate:
            if p._dynamic:
                sequence.append(_One("call1", p.ident))
            sequence.extend([
                _One("mgr_call", "allocate", p.manager),
                _One("blocked", p.manager),
                _One("t_grant", _slot_arg(p.slot)),
            ])
        elif kind is AllocateMany:
            sequence.extend([
                _One("call1", p.idents),
                _One("mgr_call", "allocate", p.manager),
                _One("blocked", p.manager),
                _One("t_grant", ANY),
            ])
        elif kind is Inquire:
            group = [
                _One("mgr_call", "inquire", p.manager),
                _One("blocked", p.manager),
                _One("t_inq", p.manager),
                _One("inq_count", p.manager),
            ]
            if p._dynamic:
                sequence.append(_One("call1", p.ident))
                sequence.append(_Rep(group, 2, 2))
            elif isinstance(p.ident, (list, tuple)):
                n = len(p.ident)
                sequence.append(_Rep(group, n, n))
            else:
                sequence.extend(group)
        elif kind is Release:
            allowed = [("raise", ()), ("release_call", ()), ("blocked", (None,))]
            if p.value is not None:
                allowed.append(("call1", (p.value,)))
            sequence.append(_Zone(allowed, minimum=1,
                                  required=(("release_call", ()),)))
            sequence.append(_One("t_rel", _slot_arg(p.slot)))
        elif kind is ReleaseMany:
            allowed = [("raise", ()), ("release_call", ()), ("blocked", (None,))]
            if p.value is not None:
                allowed.append(("call2", (p.value,)))
            sequence.append(_Zone(allowed, minimum=1,
                                  required=(("release_call", ()),)))
            sequence.append(_One("t_rel", ANY))
        elif kind is Discard:
            sequence.append(
                _One("t_disc", _slot_arg(p.slot) if p.slot is not None else ANY))
        else:
            # custom primitive: compiled as a bound probe(osm, txn) call
            probe = getattr(p, "probe", None)
            if not callable(probe):
                return None
            sequence.append(_One("txn_probe", _callable_key(probe)))
    sequence.append(_One("return_true"))
    return sequence


# --------------------------------------------------------------------------
# drivers


def replay_stepper(state, spec) -> List[str]:
    """Validate *state*'s fused stepper against its out-edge plans.

    Returns a list of problem strings; empty means the stepper replays
    clean (TRV001 passes for this state).
    """
    fn = state._fused
    if fn is None:
        return []
    source = getattr(fn, "__fused_source__", None)
    if source is None:
        return [f"fused stepper for {state.name} carries no __fused_source__"]
    try:
        node = parse_function(source, "_fused_step")
    except (ValueError, SyntaxError) as exc:
        return [f"{state.name}: unparseable stepper source: {exc}"]

    try:
        env = _param_env(node, fn)
    except ExtractionError as exc:
        return [f"{state.name}: {exc}"]
    names = [a.arg for a in node.args.args]
    if len(names) < 2:
        return [f"{state.name}: stepper signature too short"]
    env[names[0]] = ("osm",)
    env[names[1]] = ("clock",)

    problems: List[str] = []
    body = list(node.body)
    header = _Extractor(env)
    try:
        while body and not isinstance(body[0], ast.While):
            header._stmt(body.pop(0))
    except ExtractionError as exc:
        return [f"{state.name}: unclassifiable stepper header: {exc}"]
    if header.events != [("blocked_clear",)]:
        problems.append(f"{state.name}: stepper header does not clear blocked_on")
    if not body or not isinstance(body[-1], ast.Return):
        problems.append(f"{state.name}: stepper does not end in a return")
        return problems
    tail = _Extractor(header.env)
    try:
        tail._stmt(body.pop())
    except ExtractionError as exc:
        return problems + [f"{state.name}: {exc}"]
    if tail.events != [("return_none",)]:
        problems.append(f"{state.name}: stepper tail is not `return None`")

    edges = state.out_edges
    if len(body) != len(edges):
        problems.append(
            f"{state.name}: {len(body)} edge attempts generated for "
            f"{len(edges)} out-edges")
        return problems
    for edge, attempt in zip(edges, body):
        if not (isinstance(attempt, ast.While)
                and isinstance(attempt.test, ast.Constant)
                and attempt.test.value is True):
            problems.append(f"{edge.qualname}: edge attempt is not `while True`")
            continue
        extractor = _Extractor(header.env)
        try:
            extractor.run(attempt.body)
        except ExtractionError as exc:
            problems.append(f"{edge.qualname}: {exc}")
            continue
        native = _native_expected(edge)
        if native is not None and _matches(native, extractor.events):
            continue
        # a transaction-mode attempt has exactly one probe; the events
        # before it are the guards it hoisted
        hoisted = next((i for i, e in enumerate(extractor.events)
                        if e[0] == "txn_probe"), None)
        if hoisted is not None and hoisted <= _hoistable_guards(edge) \
                and _matches(_txn_expected(edge, hoisted), extractor.events):
            continue
        problems.append(
            f"{edge.qualname}: generated effects do not replay against the "
            f"edge plan (events: {[e[0] for e in extractor.events]})")
    return problems


def replay_probe(edge, probe, start: int = 0) -> List[str]:
    """Validate a compiled edge probe against the interpreted plan of
    the edge's primitives from index *start* on.

    Returns problem strings; an interpreted probe (no captured source)
    yields no problems — there is no translation to validate.
    """
    source = getattr(probe, "__probe_source__", None)
    if source is None:
        return []
    primitives = edge.condition.primitives[start:]
    try:
        node = parse_function(source, "_probe")
    except (ValueError, SyntaxError) as exc:
        return [f"{edge.qualname}: unparseable probe source: {exc}"]
    try:
        env = _param_env(node, probe)
    except ExtractionError as exc:
        return [f"{edge.qualname}: {exc}"]
    names = [a.arg for a in node.args.args]
    if len(names) < 2:
        return [f"{edge.qualname}: probe signature too short"]
    env[names[0]] = ("osm",)
    env[names[1]] = ("txn",)
    extractor = _Extractor(env)
    try:
        extractor.run(node.body)
    except ExtractionError as exc:
        return [f"{edge.qualname}: {exc}"]
    expected = _probe_expected(primitives)
    if expected is None:
        return [f"{edge.qualname}: compiled probe for a custom primitive"]
    if not _matches(expected, extractor.events):
        return [
            f"{edge.qualname}: compiled probe does not replay against the "
            f"interpreted plan (events: {[e[0] for e in extractor.events]})"]
    return []
