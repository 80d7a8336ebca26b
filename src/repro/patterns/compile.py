"""Compiled predicate kernels: plan-time specialization of the hot path.

Every candidate pairing the engines consider used to interpret the
predicate AST: build a merged bindings dict, walk :meth:`Attr.resolve`
dict lookups per operand, expand Kleene tuples through a generator.  On
the hardware that per-candidate work — not the number of partial matches
— caps throughput (the same observation that motivates the indexed
stores of :mod:`repro.engines.stores`).

This module compiles a runtime node's predicate list **once, at engine
build time**, into a single conjunction closure (*kernel*):

* operand accessors are resolved up front — variable side (existing
  partial match vs. arriving material), storage name (DAG edge
  renamings applied at compile time), attribute getter;
* the kernel evaluates directly against the two *existing* bindings
  structures — ``kernel(left_bindings, right_bindings)`` for a join,
  ``kernel(bindings, event)`` for an NFA-style extension — with **no
  per-candidate dict merge**;
* Kleene-tuple universal semantics are expanded into explicit loops;
* NaN / missing-attribute / unordered-type behaviour is preserved
  exactly: a :class:`~repro.patterns.predicates.Comparison` still turns
  ``KeyError``/``TypeError`` into ``False``, and an empty Kleene tuple
  is still vacuously true without resolving the other operand;
* predicate types the compiler does not specialize
  (:class:`FunctionPredicate`, :class:`Adjacent`, user subclasses) fall
  back to the predicate's own ``evaluate`` over a minimal two-entry
  view — same outcome, same exceptions, no full-bindings merge.

Instrumentation is compiled in rather than branched on per candidate:
without a :class:`~repro.stats.online.SelectivityTracker` the
observation-free kernel runs; attaching one
(:meth:`repro.engines.BaseEngine.set_selectivity_tracker`) recompiles
the observing variant, which reports each per-predicate outcome under
the same key convention as the interpreted path.  Evaluation counting
follows the call site it replaces (``count="each"`` for join residuals
and extensions, ``"all"`` for admission filters that pre-charge
``len(filters)``, ``"none"`` for buffer filters, which never counted).

Plan-DAG tracing (:mod:`repro.observe`) never reaches inside a kernel:
kernels stay observation-free either way, and the traced call sites
attribute kernel work per plan node by snapshotting
:class:`~repro.engines.metrics.EngineMetrics` counters and the tracer's
monotonic clock around the whole candidate loop — so attaching a
:class:`~repro.observe.trace.Tracer` changes neither the compiled code
nor any per-candidate branch.

Engines expose ``compiled=False`` to keep the interpreted path
byte-identical — the baseline of the kernel-equivalence tests and the
fig24 benchmark.

Codegen backend
---------------

On top of the closure kernels this module carries an ``exec``-codegen
backend (``codegen=True``, the default): when every predicate in the
list is specializable, the whole conjunction renders to **one
straight-line Python function** — operand accessors inlined as direct
subscripts, comparison operators as native syntax (no
``operator.lt`` call), Kleene universal loops and empty-tuple vacuity
emitted inline, ``KeyError``/``TypeError``→False via a single
enclosing ``try`` (observing variants carry a per-predicate ``try`` so
the tracker sees each outcome), and the short-circuit
``predicate_evaluations`` charges baked in per count mode.  The source
is value-free: constants, the metrics object, the tracker and the
observation keys bind as default arguments at ``exec`` time, so the
rendered source doubles as the cache key — one ``compile()`` per
kernel *shape* per process (``EngineMetrics.kernels_generated`` /
``codegen_cache_hits`` count both sides).  Any non-specializable
predicate, or ``codegen=False``, falls back to the closure kernels
byte-identically.

Set ``REPRO_DUMP_KERNELS=<dir>`` to dump each newly generated source
file for inspection (one ``kernel_<hash>.py`` per shape).
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Iterable, Mapping, Optional

from ..errors import PatternError
from .predicates import Attr, Comparison, Const, Predicate

#: Compiled conjunction: ``(left, right) -> bool``.  ``left`` is always a
#: bindings mapping; ``right`` is a bindings mapping (merge kernels) or a
#: bare event (extension kernels).
Kernel = Callable[[Mapping, object], bool]

#: How the kernel charges ``EngineMetrics.predicate_evaluations``:
#: ``"each"`` per predicate actually evaluated (short-circuit aware),
#: ``"all"`` the full list up front (tree/multi-query admission),
#: ``"none"`` not at all (NFA buffer filters never counted).
COUNT_MODES = ("each", "all", "none")

_LEFT = 0
_RIGHT = 1
_EVENT = 2


class _Resolver:
    """Maps a predicate-namespace variable to its runtime location."""

    __slots__ = ("sides", "renames", "kleene")

    def __init__(self, sides, renames, kleene):
        self.sides = sides  # var -> _LEFT | _RIGHT | _EVENT
        self.renames = renames  # var -> storage name
        self.kleene = kleene

    def locate(self, variable: str):
        """``(side, storage_name, is_kleene)`` for one variable."""
        try:
            side = self.sides[variable]
        except KeyError:
            raise PatternError(
                f"predicate variable {variable!r} is bound on neither side "
                "of the compiled kernel"
            )
        name = self.renames.get(variable, variable)
        is_kleene = variable in self.kleene and side != _EVENT
        return side, name, is_kleene

    def raw_accessor(self, variable: str):
        """Accessor for the variable's bound value (event or tuple)."""
        side, name, _ = self.locate(variable)
        if side == _EVENT:
            return lambda left, right: right
        if side == _LEFT:
            return lambda left, right, _n=name: left[_n]
        return lambda left, right, _n=name: right[_n]


def _scalar_accessor(operand, resolver: _Resolver):
    """Accessor for a non-Kleene operand value, or None when Kleene.

    Returns ``(accessor, kleene_info)`` where exactly one is set;
    ``kleene_info`` is ``(tuple_accessor, attribute, variable)``.
    """
    if isinstance(operand, Const):
        value = operand.value
        return (lambda left, right, _v=value: _v), None
    if not isinstance(operand, Attr):
        raise PatternError(f"cannot compile operand {operand!r}")
    side, name, is_kleene = resolver.locate(operand.variable)
    attr = operand.attribute
    if is_kleene:
        if side == _LEFT:
            tup = lambda left, right, _n=name: left[_n]  # noqa: E731
        else:
            tup = lambda left, right, _n=name: right[_n]  # noqa: E731
        return None, (tup, attr, operand.variable)
    if side == _EVENT:
        return (lambda left, right, _a=attr: right[_a]), None
    if side == _LEFT:
        return (lambda left, right, _n=name, _a=attr: left[_n][_a]), None
    return (lambda left, right, _n=name, _a=attr: right[_n][_a]), None


def _compile_comparison(predicate: Comparison, resolver: _Resolver):
    op = predicate._fn
    left_acc, left_kl = _scalar_accessor(predicate.left, resolver)
    right_acc, right_kl = _scalar_accessor(predicate.right, resolver)

    if left_kl is None and right_kl is None:

        def fn(left, right, _op=op, _l=left_acc, _r=right_acc):
            try:
                return _op(_l(left, right), _r(left, right))
            except (KeyError, TypeError):
                return False

        return fn

    if left_kl is not None and right_kl is not None:
        l_tup, l_attr, l_var = left_kl
        r_tup, r_attr, r_var = right_kl
        if l_var == r_var:
            # One Kleene variable on both sides (e.g. ``b.x < b.y``):
            # universal over single elements, both operands per element.
            def fn(left, right, _op=op, _t=l_tup, _la=l_attr, _ra=r_attr):
                try:
                    for element in _t(left, right):
                        if not _op(element[_la], element[_ra]):
                            return False
                except (KeyError, TypeError):
                    return False
                return True

            return fn

        def fn(
            left,
            right,
            _op=op,
            _t1=l_tup,
            _a1=l_attr,
            _t2=r_tup,
            _a2=r_attr,
        ):
            tup1 = _t1(left, right)
            tup2 = _t2(left, right)
            if not tup1 or not tup2:
                return True  # vacuous: no scalar expansion exists
            try:
                for e1 in tup1:
                    value1 = e1[_a1]
                    for e2 in tup2:
                        if not _op(value1, e2[_a2]):
                            return False
            except (KeyError, TypeError):
                return False
            return True

        return fn

    # Exactly one Kleene operand: universal over its elements, the other
    # operand resolved lazily (an empty tuple must stay vacuously true
    # even when the scalar operand's attribute is missing).
    if left_kl is not None:
        tup_acc, attr, _ = left_kl

        def fn(left, right, _op=op, _t=tup_acc, _a=attr, _o=right_acc):
            tup = _t(left, right)
            if not tup:
                return True
            try:
                other = _o(left, right)
                for element in tup:
                    if not _op(element[_a], other):
                        return False
            except (KeyError, TypeError):
                return False
            return True

        return fn

    tup_acc, attr, _ = right_kl

    def fn(left, right, _op=op, _t=tup_acc, _a=attr, _o=left_acc):
        tup = _t(left, right)
        if not tup:
            return True
        try:
            other = _o(left, right)
            for element in tup:
                if not _op(other, element[_a]):
                    return False
        except (KeyError, TypeError):
            return False
        return True

    return fn


def _compile_fallback(predicate: Predicate, resolver: _Resolver):
    """Uncompilable predicate types: delegate to ``evaluate`` over a
    minimal bindings view (at most two entries, built per call — still
    far cheaper than merging full binding dicts)."""
    variables = tuple(predicate.variables)
    accessors = [resolver.raw_accessor(v) for v in variables]
    if len(variables) == 1:
        var0, acc0 = variables[0], accessors[0]

        def fn(left, right, _p=predicate, _v=var0, _a=acc0):
            return _p.evaluate({_v: _a(left, right)})

        return fn
    (var0, var1), (acc0, acc1) = variables, accessors

    def fn(left, right, _p=predicate, _v0=var0, _v1=var1, _a0=acc0, _a1=acc1):
        return _p.evaluate({_v0: _a0(left, right), _v1: _a1(left, right)})

    return fn


def _compile_predicate(predicate: Predicate, resolver: _Resolver):
    if type(predicate) is Comparison or (
        isinstance(predicate, Comparison)
        and type(predicate).evaluate is Comparison.evaluate
    ):
        # TimestampOrder and other Comparison subclasses that keep the
        # stock evaluate are safe to specialize; subclasses overriding
        # evaluate get the exact fallback.
        return _compile_comparison(predicate, resolver)
    return _compile_fallback(predicate, resolver)


def _conjunction(
    fns: list,
    predicates: list,
    metrics,
    count: str,
    tracker,
    sel_key_by_pred,
) -> Kernel:
    total = len(fns)
    if tracker is not None:
        keys = [
            (sel_key_by_pred or {}).get(id(p)) for p in predicates
        ]
        pairs = list(zip(fns, keys))
        if count == "all":

            def kernel(left, right):
                metrics.predicate_kernel_calls += 1
                metrics.predicate_evaluations += total
                for fn, key in pairs:
                    passed = fn(left, right)
                    if key is not None:
                        tracker.observe(key, passed)
                        metrics.selectivity_observations += 1
                    if not passed:
                        return False
                return True

        elif count == "none":

            def kernel(left, right):
                metrics.predicate_kernel_calls += 1
                for fn, key in pairs:
                    passed = fn(left, right)
                    if key is not None:
                        tracker.observe(key, passed)
                        metrics.selectivity_observations += 1
                    if not passed:
                        return False
                return True

        else:  # "each"

            def kernel(left, right):
                metrics.predicate_kernel_calls += 1
                evaluated = 0
                for fn, key in pairs:
                    evaluated += 1
                    passed = fn(left, right)
                    if key is not None:
                        tracker.observe(key, passed)
                        metrics.selectivity_observations += 1
                    if not passed:
                        metrics.predicate_evaluations += evaluated
                        return False
                metrics.predicate_evaluations += total
                return True

        return kernel

    if total == 1:
        fn0 = fns[0]
        charge = 1 if count != "none" else 0

        def kernel(left, right, _f=fn0, _c=charge):
            metrics.predicate_kernel_calls += 1
            metrics.predicate_evaluations += _c
            return _f(left, right)

        return kernel

    if count == "all":

        def kernel(left, right):
            metrics.predicate_kernel_calls += 1
            metrics.predicate_evaluations += total
            for fn in fns:
                if not fn(left, right):
                    return False
            return True

    elif count == "none":

        def kernel(left, right):
            metrics.predicate_kernel_calls += 1
            for fn in fns:
                if not fn(left, right):
                    return False
            return True

    else:  # "each"

        def kernel(left, right):
            metrics.predicate_kernel_calls += 1
            evaluated = 0
            for fn in fns:
                evaluated += 1
                if not fn(left, right):
                    metrics.predicate_evaluations += evaluated
                    return False
            metrics.predicate_evaluations += total
            return True

    return kernel


# -- exec-codegen backend ----------------------------------------------------
#: Rendered source -> compiled code object, process-wide.  Sources are
#: value-free (constants, metrics, tracker and observation keys bind as
#: default arguments when the code object is exec'd), so the source
#: string is a complete structural signature of the kernel.
_CODE_CACHE: dict = {}

_EXCEPTS = "(KeyError, TypeError)"
_OP_SYMBOL = {
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "=": "==",
    "==": "==",
    "!=": "!=",
}


def clear_codegen_cache() -> None:
    """Drop the process-wide code-object cache (tests, introspection)."""
    _CODE_CACHE.clear()


def codegen_cache_size() -> int:
    return len(_CODE_CACHE)


def _specializable(predicate: Predicate) -> bool:
    """True when ``predicate`` can render to generated source — the same
    class test :func:`_compile_predicate` uses to pick the comparison
    specialization over the evaluate-delegating fallback."""
    if not (
        type(predicate) is Comparison
        or (
            isinstance(predicate, Comparison)
            and type(predicate).evaluate is Comparison.evaluate
        )
    ):
        return False
    return all(
        isinstance(operand, (Const, Attr))
        for operand in (predicate.left, predicate.right)
    ) and predicate.op in _OP_SYMBOL


def _operand_source(operand, resolver: _Resolver, event_name: str, consts: dict):
    """Render one operand: ``(scalar_expr, kleene_info)`` with exactly
    one set; ``kleene_info`` is ``(tuple_expr, attribute, variable)``.

    Constants are not embedded — they bind as ``_c<n>`` default
    arguments so the source stays value-free for caching.
    """
    if isinstance(operand, Const):
        name = f"_c{len(consts)}"
        consts[name] = operand.value
        return name, None
    side, name, is_kleene = resolver.locate(operand.variable)
    attr = operand.attribute
    if is_kleene:
        base = "left" if side == _LEFT else "right"
        return None, (f"{base}[{name!r}]", attr, operand.variable)
    if side == _EVENT:
        return f"{event_name}[{attr!r}]", None
    base = "left" if side == _LEFT else "right"
    return f"{base}[{name!r}][{attr!r}]", None


def _predicate_shape(predicate: Comparison, resolver, event_name, consts):
    """Classify one comparison into the closure-kernel shape taxonomy
    and pre-render its operand expressions."""
    op = _OP_SYMBOL[predicate.op]
    lexpr, lkl = _operand_source(predicate.left, resolver, event_name, consts)
    rexpr, rkl = _operand_source(predicate.right, resolver, event_name, consts)
    if lkl is None and rkl is None:
        return ("scalar", op, lexpr, rexpr)
    if lkl is not None and rkl is not None:
        ltup, lattr, lvar = lkl
        rtup, rattr, rvar = rkl
        if lvar == rvar:
            return ("kl_same", op, ltup, lattr, rattr)
        return ("kl_pair", op, ltup, lattr, rtup, rattr)
    if lkl is not None:
        tup, attr, _ = lkl
        return ("kl_one", op, tup, attr, rexpr, True)  # kleene on the left
    tup, attr, _ = rkl
    return ("kl_one", op, tup, attr, lexpr, False)


def _fail_lines(indent: str, count: str, rank: int) -> list:
    """Failure epilogue of predicate ``rank`` (1-based): charge the
    short-circuit count in ``"each"`` mode, then return False."""
    lines = []
    if count == "each":
        lines.append(f"{indent}_M.predicate_evaluations += {rank}")
    lines.append(f"{indent}return False")
    return lines


def _shape_lines(shape, i, indent, count) -> list:
    """Straight-line body of one predicate for the untracked kernel.

    Mirrors the closure shapes of :func:`_compile_comparison` exactly:
    empty Kleene tuples stay vacuously true without resolving the other
    operand, and all value errors reach the enclosing ``try``.
    """
    kind = shape[0]
    sub = indent + "    "
    if kind == "scalar":
        _, op, lexpr, rexpr = shape
        return [
            f"{indent}if not ({lexpr} {op} {rexpr}):",
            *_fail_lines(sub, count, i + 1),
        ]
    if kind == "kl_same":
        _, op, tup, lattr, rattr = shape
        return [
            f"{indent}for _e in {tup}:",
            f"{sub}if not (_e[{lattr!r}] {op} _e[{rattr!r}]):",
            *_fail_lines(sub + "    ", count, i + 1),
        ]
    if kind == "kl_one":
        _, op, tup, attr, other, kleene_left = shape
        test = (
            f"_e[{attr!r}] {op} _o{i}"
            if kleene_left
            else f"_o{i} {op} _e[{attr!r}]"
        )
        return [
            f"{indent}_t{i} = {tup}",
            f"{indent}if _t{i}:",
            f"{sub}_o{i} = {other}",
            f"{sub}for _e in _t{i}:",
            f"{sub}    if not ({test}):",
            *_fail_lines(sub + "        ", count, i + 1),
        ]
    _, op, ltup, lattr, rtup, rattr = shape
    return [
        f"{indent}_t{i} = {ltup}",
        f"{indent}_u{i} = {rtup}",
        f"{indent}if _t{i} and _u{i}:",
        f"{sub}for _e in _t{i}:",
        f"{sub}    _v{i} = _e[{lattr!r}]",
        f"{sub}    for _f in _u{i}:",
        f"{sub}        if not (_v{i} {op} _f[{rattr!r}]):",
        *_fail_lines(sub + "            ", count, i + 1),
    ]


def _shape_p_lines(shape, i, indent) -> list:
    """Body of one predicate for the observing kernel: compute ``_p``
    under a per-predicate ``try`` so every outcome reaches the tracker
    (the closure equivalent evaluates each predicate through its own
    exception-absorbing closure before observing)."""
    kind = shape[0]
    sub = indent + "    "
    if kind == "scalar":
        _, op, lexpr, rexpr = shape
        return [
            f"{indent}try:",
            f"{sub}_p = ({lexpr} {op} {rexpr})",
            f"{indent}except {_EXCEPTS}:",
            f"{sub}_p = False",
        ]
    if kind == "kl_same":
        _, op, tup, lattr, rattr = shape
        return [
            f"{indent}_p = True",
            f"{indent}try:",
            f"{sub}for _e in {tup}:",
            f"{sub}    if not (_e[{lattr!r}] {op} _e[{rattr!r}]):",
            f"{sub}        _p = False",
            f"{sub}        break",
            f"{indent}except {_EXCEPTS}:",
            f"{sub}_p = False",
        ]
    if kind == "kl_one":
        _, op, tup, attr, other, kleene_left = shape
        test = (
            f"_e[{attr!r}] {op} _o{i}"
            if kleene_left
            else f"_o{i} {op} _e[{attr!r}]"
        )
        return [
            f"{indent}_t{i} = {tup}",
            f"{indent}if not _t{i}:",
            f"{sub}_p = True",
            f"{indent}else:",
            f"{sub}_p = True",
            f"{sub}try:",
            f"{sub}    _o{i} = {other}",
            f"{sub}    for _e in _t{i}:",
            f"{sub}        if not ({test}):",
            f"{sub}            _p = False",
            f"{sub}            break",
            f"{sub}except {_EXCEPTS}:",
            f"{sub}    _p = False",
        ]
    _, op, ltup, lattr, rtup, rattr = shape
    return [
        f"{indent}_t{i} = {ltup}",
        f"{indent}_u{i} = {rtup}",
        f"{indent}if not _t{i} or not _u{i}:",
        f"{sub}_p = True",
        f"{indent}else:",
        f"{sub}_p = True",
        f"{sub}try:",
        f"{sub}    for _e in _t{i}:",
        f"{sub}        _v{i} = _e[{lattr!r}]",
        f"{sub}        for _f in _u{i}:",
        f"{sub}            if not (_v{i} {op} _f[{rattr!r}]):",
        f"{sub}                _p = False",
        f"{sub}                break",
        f"{sub}        if not _p:",
        f"{sub}            break",
        f"{sub}except {_EXCEPTS}:",
        f"{sub}    _p = False",
    ]


def _gen_untracked(shapes, count, args, const_names, total) -> str:
    params = ", ".join(
        [*args, "_M=_M", *(f"{n}={n}" for n in const_names)]
    )
    lines = [f"def kernel({params}):", "    _M.predicate_kernel_calls += 1"]
    if count == "all":
        lines.append(f"    _M.predicate_evaluations += {total}")
    if count == "each":
        lines.append("    _n = 1")
    lines.append("    try:")
    for i, shape in enumerate(shapes):
        if count == "each" and i:
            lines.append(f"        _n = {i + 1}")
        lines.extend(_shape_lines(shape, i, "        ", count))
    lines.append(f"    except {_EXCEPTS}:")
    if count == "each":
        lines.append("        _M.predicate_evaluations += _n")
    lines.append("        return False")
    if count == "each":
        lines.append(f"    _M.predicate_evaluations += {total}")
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _gen_tracked(shapes, count, args, const_names, key_flags, total) -> str:
    key_params = [f"_K{i}=_K{i}" for i, flag in enumerate(key_flags) if flag]
    params = ", ".join(
        [*args, "_M=_M", "_T=_T", *key_params, *(f"{n}={n}" for n in const_names)]
    )
    lines = [f"def kernel({params}):", "    _M.predicate_kernel_calls += 1"]
    if count == "all":
        lines.append(f"    _M.predicate_evaluations += {total}")
    for i, shape in enumerate(shapes):
        lines.extend(_shape_p_lines(shape, i, "    "))
        if key_flags[i]:
            lines.append(f"    _T.observe(_K{i}, _p)")
            lines.append("    _M.selectivity_observations += 1")
        lines.append("    if not _p:")
        if count == "each":
            lines.append(f"        _M.predicate_evaluations += {i + 1}")
        lines.append("        return False")
    if count == "each":
        lines.append(f"    _M.predicate_evaluations += {total}")
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _maybe_dump(source: str) -> None:
    directory = os.environ.get("REPRO_DUMP_KERNELS")
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:12]
    path = os.path.join(directory, f"kernel_{digest}.py")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)


def _generate(
    preds, resolver, metrics, count, tracker, sel_key_by_pred, form
) -> Kernel:
    """Render, compile (or fetch from cache) and instantiate one kernel.

    ``form`` is ``"pair"`` (``kernel(left, right)``) or ``"event"``
    (``kernel(event)``).
    """
    consts: dict = {}
    event_name = "right" if form == "pair" else "event"
    shapes = [
        _predicate_shape(p, resolver, event_name, consts) for p in preds
    ]
    total = len(preds)
    args = ["left", "right"] if form == "pair" else ["event"]
    keys = [(sel_key_by_pred or {}).get(id(p)) for p in preds]
    if tracker is not None:
        key_flags = [key is not None for key in keys]
        source = _gen_tracked(
            shapes, count, args, list(consts), key_flags, total
        )
    else:
        source = _gen_untracked(shapes, count, args, list(consts), total)
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<repro-kernel>", "exec")
        _CODE_CACHE[source] = code
        metrics.kernels_generated += 1
        _maybe_dump(source)
    else:
        metrics.codegen_cache_hits += 1
    namespace = {"_M": metrics, "_T": tracker, **consts}
    for i, key in enumerate(keys):
        if key is not None:
            namespace[f"_K{i}"] = key
    exec(code, namespace)
    return namespace["kernel"]


def _build(
    predicates,
    resolver,
    metrics,
    count,
    tracker,
    sel_key_by_pred,
    codegen=False,
    form="pair",
):
    if count not in COUNT_MODES:
        raise PatternError(f"unknown count mode {count!r}")
    preds = list(predicates)
    if not preds:
        return None
    if codegen and all(_specializable(p) for p in preds):
        return _generate(
            preds, resolver, metrics, count, tracker, sel_key_by_pred, form
        )
    fns = [_compile_predicate(p, resolver) for p in preds]
    return _conjunction(fns, preds, metrics, count, tracker, sel_key_by_pred)


# -- public compilers --------------------------------------------------------
def compile_merge_kernel(
    predicates: Iterable[Predicate],
    left_variables: Iterable[str],
    right_variables: Iterable[str],
    kleene: Iterable[str],
    metrics,
    tracker=None,
    sel_key_by_pred: Optional[dict] = None,
    left_rename: Optional[Mapping[str, str]] = None,
    right_rename: Optional[Mapping[str, str]] = None,
    count: str = "each",
    codegen: bool = True,
) -> Optional[Kernel]:
    """Kernel over two partial matches: ``kernel(left_b, right_b)``.

    Variables in ``left_variables`` resolve from the first bindings
    mapping, the rest from the second; ``*_rename`` translate predicate-
    namespace names to storage names (multi-query DAG edges).  ``kleene``
    names (predicate namespace) are bound to event tuples and expand
    with universal semantics.  Returns None for an empty predicate list.

    ``codegen=True`` renders fully specializable predicate lists to one
    generated function (see the module docstring); ``codegen=False`` and
    non-specializable lists take the closure path.
    """
    sides = {v: _LEFT for v in left_variables}
    for v in right_variables:
        sides.setdefault(v, _RIGHT)
    renames = dict(left_rename or {})
    renames.update(right_rename or {})
    resolver = _Resolver(sides, renames, frozenset(kleene))
    return _build(
        predicates,
        resolver,
        metrics,
        count,
        tracker,
        sel_key_by_pred,
        codegen=codegen,
    )


def compile_extension_kernel(
    predicates: Iterable[Predicate],
    variable: str,
    kleene: Iterable[str],
    metrics,
    tracker=None,
    sel_key_by_pred: Optional[dict] = None,
    codegen: bool = True,
) -> Optional[Kernel]:
    """Kernel for binding one arriving event: ``kernel(bindings, event)``.

    ``variable`` resolves to the bare event (scalar even when the
    variable is a Kleene closure — the check covers the new element
    only, exactly like the interpreted extension/absorption path); every
    other variable resolves from ``bindings`` with tuple expansion for
    Kleene names.
    """
    sides = {variable: _EVENT}
    kleene = frozenset(kleene)
    for predicate in predicates:
        for name in predicate.variables:
            sides.setdefault(name, _LEFT)
    resolver = _Resolver(sides, {}, kleene)
    return _build(
        predicates,
        resolver,
        metrics,
        "each",
        tracker,
        sel_key_by_pred,
        codegen=codegen,
    )


def compile_event_kernel(
    predicates: Iterable[Predicate],
    variable: str,
    metrics,
    tracker=None,
    sel_key_by_pred: Optional[dict] = None,
    count: str = "each",
    codegen: bool = True,
) -> Optional[Callable[[object], bool]]:
    """Unary admission kernel: ``kernel(event)`` for one variable's
    filters (tree/multi-query leaf admission, NFA buffer filters).

    The codegen backend emits the unary form directly (no closure
    wrapper hop); the closure fallback keeps the historical wrapper.
    """
    if count not in COUNT_MODES:
        raise PatternError(f"unknown count mode {count!r}")
    preds = list(predicates)
    if not preds:
        return None
    resolver = _Resolver({variable: _EVENT}, {}, frozenset())
    if codegen and all(_specializable(p) for p in preds):
        return _generate(
            preds, resolver, metrics, count, tracker, sel_key_by_pred, "event"
        )
    kernel = _build(preds, resolver, metrics, count, tracker, sel_key_by_pred)

    def event_kernel(event, _k=kernel):
        return _k(None, event)

    return event_kernel

