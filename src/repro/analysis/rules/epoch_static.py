"""REP003: static epoch discipline on the ``Database`` facade.

Every public read of a database with an :class:`EpochManager` must run
under the shared side and every mutation under the exclusive side —
otherwise a concurrent writer can interleave with the read half-way
through index maintenance (the torn read the protocol exists to
prevent).  The dynamic checker (``EpochManager(debug=True)``, see
``engine/epochs.py``) catches violations that actually execute; this
rule catches them at review time, before a workload has to trip them.

Scope: classes whose ``__init__`` assigns ``self.epochs``.  Three
checks per method:

1. **Unlocked engine access** (public methods only — private helpers run
   under their caller's acquisition by convention): calls that touch
   shared engine state (``self.catalog.table_entry`` / ``.tables``,
   ``self.planner.plan`` / ``.plan_many``, ``self._durability
   .checkpoint``) must sit lexically inside a ``with self.epochs.read()``
   or ``write()`` block.
2. **Mutation under the shared side**: no mutation call (``log_*``
   hooks, catalog mutators, table/index apply calls, TRS-Tree
   reorganization) inside a ``read()`` block that is not nested in a
   ``write()``.
3. **Static upgrade**: no ``with self.epochs.write()`` lexically inside
   a ``with self.epochs.read()`` — the runtime raises on this, but it
   should never survive review in the first place.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Finding,
    Module,
    Rule,
    call_attr,
    dotted_name,
    iter_methods,
    register,
    self_attr_target,
)

#: dotted receiver -> attributes that read shared engine state.
ENGINE_READS = {
    "self.catalog": frozenset({"table_entry", "tables"}),
    "self.planner": frozenset({"plan", "plan_many"}),
    "self._durability": frozenset({"checkpoint"}),
}

#: Attributes whose call mutates engine state.
MUTATION_ATTRS = frozenset({
    "add_table", "add_index", "drop_index", "bump_data_epoch",
    "insert", "insert_many", "delete", "delete_many", "update",
    "update_many", "build", "reorganize", "reorganize_children",
})


def _epoch_side(node: ast.With) -> str | None:
    """'read'/'write' when the with-statement acquires self.epochs."""
    for item in node.items:
        call = item.context_expr
        if not isinstance(call, ast.Call):
            continue
        attr = call_attr(call)
        if attr in ("read", "write") and isinstance(call.func, ast.Attribute):
            if self_attr_target(call.func.value) == "epochs":
                return attr
    return None


def _uses_epochs(class_node: ast.ClassDef) -> bool:
    init = next((m for m in iter_methods(class_node)
                 if m.name == "__init__"), None)
    if init is None:
        return False
    return any(
        self_attr_target(target) == "epochs"
        for node in ast.walk(init) if isinstance(node, ast.Assign)
        for target in node.targets
    )


class _MethodVisitor(ast.NodeVisitor):
    """Walk one method tracking the lexical epoch-acquisition stack."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        # (node, acquisition stack at the node) for every call/with seen.
        self.calls: list[tuple[ast.Call, tuple[str, ...]]] = []
        self.upgrades: list[ast.With] = []

    def visit_With(self, node: ast.With) -> None:
        side = _epoch_side(node)
        if side is None:
            self.generic_visit(node)
            return
        if side == "write" and "read" in self.stack:
            self.upgrades.append(node)
        self.stack.append(side)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append((node, tuple(self.stack)))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs get their own locking context; don't descend.
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


@register
class EpochDiscipline(Rule):
    rule_id = "REP003"
    name = "epoch-discipline"
    description = ("public Database reads hold the shared epoch side, "
                   "mutations the exclusive side, and never upgrade")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if not _uses_epochs(class_node):
                continue
            for method in iter_methods(class_node):
                if method.name == "__init__":
                    continue
                yield from self._check_method(module, class_node, method)

    def _check_method(self, module: Module, class_node: ast.ClassDef,
                      method: ast.FunctionDef) -> Iterator[Finding]:
        visitor = _MethodVisitor()
        for statement in method.body:
            visitor.visit(statement)
        public = not method.name.startswith("_")
        label = f"{class_node.name}.{method.name}"

        for node in visitor.upgrades:
            yield Finding(
                rule=self.rule_id,
                message=(f"{label} acquires the write side inside a read "
                         f"block — a read-to-write upgrade deadlocks "
                         f"against the thread's own read"),
                path=module.path, line=node.lineno,
            )

        for call, stack in visitor.calls:
            attr = call_attr(call)
            if attr is None:
                continue
            receiver = (dotted_name(call.func.value)
                        if isinstance(call.func, ast.Attribute) else None)
            touches = any(
                receiver == wanted_receiver and attr in attrs
                for wanted_receiver, attrs in ENGINE_READS.items()
            )
            if public and touches and not stack:
                yield Finding(
                    rule=self.rule_id,
                    message=(f"{label} calls {receiver}.{attr} outside the "
                             f"epoch protocol — a concurrent writer can "
                             f"interleave with this access"),
                    path=module.path, line=call.lineno,
                )
            mutates = attr in MUTATION_ATTRS or attr.startswith("log_")
            if mutates and stack and "write" not in stack:
                yield Finding(
                    rule=self.rule_id,
                    message=(f"{label} calls the mutation {attr!r} under "
                             f"the shared (read) side — mutations need the "
                             f"exclusive side"),
                    path=module.path, line=call.lineno,
                )
