"""REP004: hot batch paths stay vectorized.

The engine's batch throughput (PR 8) comes precisely from replacing
per-element Python loops with array passes — ``np.searchsorted`` over an
index's sorted keys instead of B tree descents, one segmented gather
instead of B list appends.  A per-element ``for`` loop over array-shaped
data quietly reintroduces the O(B) Python overhead the batch API exists
to remove, and no correctness test will ever object.

Scope — a function is *hot* when any of:

* its module carries a ``# repro: hot-module`` marker comment
  (``repro/segments.py``, ``repro/core/lookup.py`` and
  ``repro/engine/executor.py`` ship marked);
* it is a ``*_many`` / ``*_segmented`` function in an index module
  (``repro/index/``: ``OrderedIndex.insert_many``,
  ``range_search_segmented``), under ``repro/core/``
  (``TRSTree.lookup_many``, ``HermitIndex.candidate_tids_many``,
  ``finish_lookup_segmented``) — the vectorized entry points of every
  mechanism — or on the load
  path under ``repro/storage/`` and ``repro/engine/``
  (``Table.insert_many``, ``Database.insert_many``).

Inside a hot function the rule flags ``for`` statements whose iterable
is array-shaped: a bare parameter of the function (directly or through
``enumerate`` / ``zip`` / ``reversed``), anything dereferencing
``.tolist`` / ``.size`` / ``.shape`` / ``.item``, or ``np.nditer`` /
``np.ndenumerate``.  Comprehensions are not flagged for that — a single
C-level comprehension building a result list is often the
materialisation boundary itself — except one that builds a ``KeyRange``,
``RowLocation``, ``int`` or ``float`` per element of such an iterable,
of a ``range`` or of a batch call's result (``[int(slot) for slot in
table.insert_many(batch)]``): a batch's bounds travel as one
``KeyRanges`` (two float arrays) and its slots as one int64 array, and
turning them into per-element objects is the round-trip the batch path
exists to avoid (``ndarray.tolist()`` is the one-call boundary).

Legitimate loops (a documented per-pair fallback, one array pass per
element of a short list of bounds or parts) stay, suppressed per site::

    # repro: ignore[REP004] -- one array pass per bound, of a handful
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Finding,
    Module,
    Rule,
    dotted_name,
    register,
)

HOT_MODULE_MARKER = "hot-module"
HOT_METHOD_SUFFIXES = ("_many", "_segmented")
HOT_PATH_FRAGMENTS = ("repro/index/", "repro/core/", "repro/storage/",
                      "repro/engine/")
PER_ELEMENT_CALLS = frozenset({"KeyRange", "RowLocation", "int", "float"})
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)

ARRAY_ATTRS = frozenset({"tolist", "size", "shape", "item"})
WRAPPER_CALLS = frozenset({"enumerate", "zip", "reversed"})


def _parameters(function: ast.FunctionDef) -> frozenset[str]:
    args = function.args
    names = [arg.arg for arg in
             args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    return frozenset(name for name in names if name != "self")


def _iterable_reason(iterable: ast.expr,
                     params: frozenset[str]) -> str | None:
    """Why a loop's or comprehension's iterable looks array-shaped, or None."""
    for node in ast.walk(iterable):
        if isinstance(node, ast.Attribute) and node.attr in ARRAY_ATTRS:
            return f"iterable dereferences .{node.attr}"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("np.nditer", "np.ndenumerate",
                        "numpy.nditer", "numpy.ndenumerate"):
                return f"iterable is {name}"
    candidates = [iterable]
    if (isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in WRAPPER_CALLS):
        candidates = list(iterable.args)
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in params:
            return f"iterates the batch parameter {candidate.id!r}"
    return None


def _element_iterable_reason(iterable: ast.expr,
                             params: frozenset[str]) -> str | None:
    """:func:`_iterable_reason`, plus a ``range`` or a batch call's result."""
    reason = _iterable_reason(iterable, params)
    if reason is None and isinstance(iterable, ast.Call):
        called = (dotted_name(iterable.func) or "").split(".")[-1]
        if called == "range":
            reason = "iterates a range of positions"
        elif called.endswith(HOT_METHOD_SUFFIXES):
            reason = f"iterates the result of {called}"
    return reason


def _per_element_call(comprehension: ast.expr) -> str | None:
    """The per-element class or conversion the element expression calls."""
    elements = ([comprehension.key, comprehension.value]
                if isinstance(comprehension, ast.DictComp)
                else [comprehension.elt])
    for element in elements:
        for node in ast.walk(element):
            if isinstance(node, ast.Call):
                called = (dotted_name(node.func) or "").split(".")[-1]
                if called in PER_ELEMENT_CALLS:
                    return called
    return None


def _findings_in(function: ast.FunctionDef) -> Iterator[tuple[ast.AST, str]]:
    """(node, what) for every flagged loop or comprehension in ``function``."""
    params = _parameters(function)
    for node in ast.walk(function):
        if isinstance(node, ast.For):
            reason = _iterable_reason(node.iter, params)
            if reason is not None:
                yield node, f"per-element loop ({reason})"
        elif isinstance(node, COMPREHENSIONS):
            called = _per_element_call(node)
            if called is None:
                continue
            for generator in node.generators:
                reason = _element_iterable_reason(generator.iter, params)
                if reason is not None:
                    yield node, f"per-element {called} comprehension ({reason})"
                    break


def _is_hot_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in HOT_PATH_FRAGMENTS)


@register
class HotPathPurity(Rule):
    rule_id = "REP004"
    name = "hot-path-vectorization"
    description = ("no per-element Python for loops over array-shaped "
                   "data, and no per-element KeyRange / RowLocation / int / "
                   "float rebuilds, in hot batch paths")

    def check_module(self, module: Module) -> Iterator[Finding]:
        module_hot = HOT_MODULE_MARKER in module.markers
        path_hot = _is_hot_path(module.path)
        if not module_hot and not path_hot:
            return
        for function in ast.walk(module.tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            hot = module_hot or (
                path_hot
                and function.name.endswith(HOT_METHOD_SUFFIXES)
            )
            if not hot:
                continue
            for node, what in _findings_in(function):
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        f"{what} in hot path {function.name} — batch work "
                        f"belongs in array passes; suppress with a "
                        f"rationale if this is a documented scalar fallback"
                    ),
                    path=module.path, line=node.lineno,
                )
