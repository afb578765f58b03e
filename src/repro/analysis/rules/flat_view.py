"""REP001: mutators of flat-view owners must tell the view.

``BPlusTree`` and ``TRSTree`` keep a *flat view* of their entries
(``self._flat_view``, a :class:`~repro.index.flat_view.FlatView`) that
turns lookups into array probes.  The view only stays correct if it hears
about every write, so **every** method that mutates entry state must either
*record* what it did through the view's own helpers
(``self._flat_view.record_insert`` / ``record_insert_many`` /
``record_delete`` — the next probe folds the record in) or *drop* the view
(``self._flat_view.drop()``).  A new mutator that does neither produces
silently stale results, which no test notices until a workload happens to
interleave that mutator with lookups.

The rule applies to any class whose ``__init__`` assigns
``self._flat_view``.  A method counts as a mutator when it assigns,
augments or deletes one of the entry-state attributes below, or calls a
mutating container method on one; it satisfies the invariant when its
body contains a record or a drop on some path (the rule is
reachability-insensitive by design — the cheap discipline is to notify
unconditionally, which every current site does; the view itself ignores
records while it holds no arrays).

``TRSTree``'s entries live in *other* objects — its view spans the outlier
buffers of all its leaves, and next to it sits ``self._leaf_table``, whose
``emits`` mask mirrors every leaf's ``num_model_covered`` — so for an owner
two more things count as mutations: calling ``add`` / ``add_many`` /
``remove`` / ``clear`` on anything's ``.outliers`` (tell the view), and
assigning anything's ``.num_model_covered`` (tell the table: call a method
on ``self._leaf_table`` or assign over it).  Replacing ``self._root`` in a
class that keeps a leaf table must tell both.
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
    "_entries", "_count", "_num_entries", "_root", "_height",
})

#: Container methods that mutate in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault",
})


#: ``OutlierBuffer`` methods that change what a tree-wide outlier view holds.
OUTLIER_MUTATORS = frozenset({"add", "add_many", "remove", "clear"})
#: The per-leaf counter a leaf table's ``emits`` mask mirrors.
EMIT_STATE = "num_model_covered"
LEAF_TABLE = "_leaf_table"


def _mutated_state(method: ast.FunctionDef) -> set[str]:
    """What this method mutates: entry-state attributes of ``self`` by name,
    plus ``"outliers"`` / ``"num_model_covered"`` when it writes them on any
    object (the leaves a flat-view owner reads through its view)."""
    mutated: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = self_attr_target(target)
                if attr in ENTRY_STATE:
                    mutated.add(attr)
                elif (isinstance(target, ast.Attribute)
                      and target.attr == EMIT_STATE):
                    mutated.add(EMIT_STATE)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = (target.value if isinstance(target, ast.Subscript)
                        else target)
                attr = self_attr_target(base)
                if attr in ENTRY_STATE:
                    mutated.add(attr)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)):
            receiver = node.func.value
            if node.func.attr in MUTATING_METHODS:
                attr = self_attr_target(receiver)
                if attr in ENTRY_STATE:
                    mutated.add(attr)
            if (node.func.attr in OUTLIER_MUTATORS
                    and isinstance(receiver, ast.Attribute)
                    and receiver.attr == "outliers"):
                mutated.add("outliers")
    return mutated


def _assigns_self(method: ast.FunctionDef, attr: str) -> bool:
    """Whether the method assigns ``self.<attr>`` (annotated or not)."""
    return any(
        self_attr_target(target) == attr
        for node in ast.walk(method)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", None) or [node.target]
    )


def _notifies_leaf_table(method: ast.FunctionDef) -> bool:
    """Whether the method calls into, or assigns over, ``self._leaf_table``."""
    return _assigns_self(method, LEAF_TABLE) or any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and self_attr_target(node.func.value) == LEAF_TABLE
        for node in ast.walk(method)
    )


#: ``FlatView`` methods through which a mutator keeps the view honest.
VIEW_NOTIFICATIONS = frozenset({
    "record_insert", "record_insert_many", "record_delete", "drop",
})


def _notifies_flat_view(method: ast.FunctionDef) -> bool:
    """Whether the method records a delta with, or drops, ``self._flat_view``."""
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
            keeps_table = _assigns_self(init, LEAF_TABLE)
            for method in methods:
                if method.name == "__init__":
                    continue
                mutated = _mutated_state(method)
                for_view = mutated - {EMIT_STATE}
                for_table = mutated & ({EMIT_STATE, "_root"} if keeps_table
                                       else {EMIT_STATE})
                if for_view and not _notifies_flat_view(method):
                    yield self._finding(
                        module, class_node, method, for_view,
                        "recording the write with, or dropping, "
                        "self._flat_view — lookups would serve a stale view")
                if for_table and not _notifies_leaf_table(method):
                    yield self._finding(
                        module, class_node, method, for_table,
                        "updating or dropping self._leaf_table — lookups "
                        "would read a stale leaf table")

    def _finding(self, module: Module, class_node: ast.ClassDef,
                 method: ast.FunctionDef, mutated: set[str],
                 missing: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            message=(f"{class_node.name}.{method.name} mutates "
                     f"{', '.join(sorted(mutated))} without {missing}"),
            path=module.path, line=method.lineno,
        )
