"""REP007: mutators of lock-owning cache state must hold the lock.

``ResultCache`` (``src/repro/cache/result_cache.py``) is probed and
filled from the engine's *read* path, where many reader threads run
concurrently under the shared epoch side.  The epoch protocol therefore
cannot serialise its bookkeeping — the cache owns a mutex instead, and
the discipline is structural: **every** method that mutates cache state
either takes ``with self._lock:`` somewhere in its body, runs under the
epoch *write* side (``with self.epochs.write():``), or is a
``*_locked``-suffixed helper whose contract is "only called while the
lock is already held".  A mutator that forgets all three corrupts the
LRU order or the byte accounting under concurrent serving load — the
kind of bug that only surfaces as an impossible stats snapshot hours
into a soak run.

The rule applies to any class whose ``__init__`` assigns *both*
``self._lock`` and ``self._entries`` (the lock-owning cache shape; the
serving server and the ordered index own a lock but no entry map —
neither is in scope).  A method mutates cache state when it assigns,
augments or deletes one of the cache-state attributes below, or calls a
mutating container method on one.
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

#: Attributes that make up guarded cache state.
CACHE_STATE = frozenset({
    "_entries", "_bytes", "_hits", "_misses", "_stale_evictions",
    "_lru_evictions", "_admission_deferrals", "_per_table",
    "_seen", "_seen_old",
})

#: Container methods that mutate in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end",
})


def _mutated_state(method: ast.FunctionDef) -> set[str]:
    """Cache-state attributes this method mutates, by name."""
    mutated: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                base = (target.value if isinstance(target, ast.Subscript)
                        else target)
                attr = self_attr_target(base)
                if attr in CACHE_STATE:
                    mutated.add(attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = (target.value if isinstance(target, ast.Subscript)
                        else target)
                attr = self_attr_target(base)
                if attr in CACHE_STATE:
                    mutated.add(attr)
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS):
                attr = self_attr_target(node.func.value)
                if attr in CACHE_STATE:
                    mutated.add(attr)
    return mutated


def _holds_lock(method: ast.FunctionDef) -> bool:
    """Whether the body contains ``with self._lock:`` or the write side.

    The check is reachability-insensitive: the cheap discipline is to take
    the lock unconditionally around every mutation, which every current
    site does.
    """
    for node in ast.walk(method):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            expr = item.context_expr
            if self_attr_target(expr) == "_lock":
                return True
            if (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "write"
                    and self_attr_target(expr.func.value) == "epochs"):
                return True
    return False


@register
class ResultCacheDiscipline(Rule):
    rule_id = "REP007"
    name = "result-cache-discipline"
    description = ("methods mutating lock-owning cache state must hold "
                   "self._lock, run under the epoch write side, or be "
                   "_locked-suffixed helpers")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            methods = list(iter_methods(class_node))
            init = next((m for m in methods if m.name == "__init__"), None)
            if init is None:
                continue
            assigned = {
                self_attr_target(target)
                for node in ast.walk(init) if isinstance(node, ast.Assign)
                for target in node.targets
            }
            if not {"_lock", "_entries"} <= assigned:
                continue
            for method in methods:
                if method.name == "__init__":
                    continue
                if method.name.endswith("_locked"):
                    continue
                mutated = _mutated_state(method)
                if mutated and not _holds_lock(method):
                    attrs = ", ".join(sorted(mutated))
                    yield Finding(
                        rule=self.rule_id,
                        message=(
                            f"{class_node.name}.{method.name} mutates "
                            f"{attrs} without taking self._lock (or the "
                            f"epoch write side) — concurrent probes would "
                            f"corrupt the cache bookkeeping"
                        ),
                        path=module.path, line=method.lineno,
                    )
