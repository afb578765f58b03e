"""REP001: mutators of flat-view owners must tell the view.

``BPlusTree`` and ``TRSTree`` keep a *flat view* of their entries
(``self._flat_view``, a :class:`~repro.index.flat_view.FlatView`) that
turns lookups into array probes.  The view only stays correct if it hears
about every write, so **every** method that mutates entry state must either
*record* what it did through the view's own helpers
(``self._flat_view.record_insert`` / ``record_insert_many`` /
``record_delete`` — the next probe folds the record in), *drop* the view
(``self._flat_view.drop()``) or, when it rebuilt the owner from one sorted
run, hand that run over as the new view (``self._flat_view.adopt(...)``).
A new mutator that does none of these produces
silently stale results, which no test notices until a workload happens to
interleave that mutator with lookups.  (``adopt`` is trusted to be handed
the owner's true contents; the tests compare it with a from-scratch
flatten.)

The rule applies to any class whose ``__init__`` assigns
``self._flat_view``.  A method counts as a mutator when it assigns,
augments or deletes one of the entry-state attributes below, or calls a
mutating container method on one — for ``TRSTree``, whose entries live in
its outlier buffer ``self._outliers``, that is the buffer's ``add`` /
``add_many`` / ``remove``; it satisfies the invariant when its body
contains a record, a drop or an adopt on some path (the rule is
reachability-insensitive by design — the cheap discipline is to notify
unconditionally, which every current site does; the view itself ignores
records while it holds no arrays).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Finding,
    Module,
    Rule,
    iter_methods,
    register,
    self_attr_target,
)

#: Attributes that hold entry state feeding the flat view.
ENTRY_STATE = frozenset({
    "_entries", "_count", "_num_entries", "_root", "_height", "_outliers",
})

#: Container (and outlier-buffer) methods that mutate in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "add_many",
})


def _mutated_state(method: ast.FunctionDef) -> set[str]:
    """The entry-state attributes of ``self`` this method mutates."""
    mutated: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            mutated.update(self_attr_target(target) for target in targets)
        elif isinstance(node, ast.Delete):
            mutated.update(
                self_attr_target(target.value if isinstance(target, ast.Subscript)
                                 else target)
                for target in node.targets)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATING_METHODS):
            mutated.add(self_attr_target(node.func.value))
    return mutated & ENTRY_STATE


def _assigns_self(method: ast.FunctionDef, attr: str) -> bool:
    """Whether the method assigns ``self.<attr>`` (annotated or not)."""
    return any(
        self_attr_target(target) == attr
        for node in ast.walk(method)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", None) or [node.target]
    )


#: ``FlatView`` methods through which a mutator keeps the view honest.
VIEW_NOTIFICATIONS = frozenset({
    "record_insert", "record_insert_many", "record_delete", "drop", "adopt",
})


def _notifies_flat_view(method: ast.FunctionDef) -> bool:
    """Whether the method records a delta with, drops or replaces
    ``self._flat_view``."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in VIEW_NOTIFICATIONS
        and self_attr_target(node.func.value) == "_flat_view"
        for node in ast.walk(method)
    )


@register
class FlatViewInvalidation(Rule):
    rule_id = "REP001"
    name = "flat-view-invalidation"
    description = ("methods mutating flat-view-backed entry state must "
                   "record the write with, or drop, self._flat_view")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            methods = list(iter_methods(class_node))
            init = next((m for m in methods if m.name == "__init__"), None)
            if init is None or not _assigns_self(init, "_flat_view"):
                continue
            for method in methods:
                if method.name == "__init__":
                    continue
                mutated = _mutated_state(method)
                if mutated and not _notifies_flat_view(method):
                    yield Finding(
                        rule=self.rule_id,
                        message=(f"{class_node.name}.{method.name} mutates "
                                 f"{', '.join(sorted(mutated))} without "
                                 "recording the write with, or dropping, "
                                 "self._flat_view — lookups would serve a "
                                 "stale view"),
                        path=module.path, line=method.lineno,
                    )
