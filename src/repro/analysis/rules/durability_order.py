"""REP002: durability ordering — validate, then log, then apply.

The write-ahead protocol (``docs/durability.md``) only works if every
logged operation is guaranteed to succeed on replay and every applied
mutation is guaranteed to be in the log.  That pins the source order of
every ``Database`` method that calls a ``log_*`` hook:

1. **Validation before the append** — everything that can reject the
   operation (``validate_*`` calls, ``fetch`` of the target row, explicit
   ``raise`` guards) must run before the first ``log_*`` call, so the WAL
   never holds a record that fails to re-apply.
2. **The append before the mutation** — no table/index/catalog apply
   call (``insert_many``, ``delete_many``, ``update_many``, their
   row-at-a-time wrappers, ``build``, ``add_table``, ``add_index``,
   ``drop_index``, ``bump_data_epoch``) may precede the first ``log_*``
   call, so a crash cannot leave an applied-but-unlogged mutation.

The rule scopes itself to methods that call an attribute starting with
``log_`` (the durability hooks) and compares statement line numbers —
the engine's DML bodies are straight-line enough that source order is
execution order, and keeping them that way is itself part of the
discipline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Finding,
    Module,
    Rule,
    call_attr,
    register,
)

#: Calls that apply a mutation to engine state.
APPLY_ATTRS = frozenset({
    "insert", "insert_many", "delete", "delete_many", "update",
    "update_many", "build", "add_table", "add_index", "drop_index",
    "bump_data_epoch",
})

#: Calls that validate the operation (besides explicit ``raise`` guards).
VALIDATE_PREFIX = "validate"
VALIDATE_ATTRS = frozenset({"fetch"})


@register
class DurabilityOrdering(Rule):
    rule_id = "REP002"
    name = "durability-ordering"
    description = ("WAL-logged methods must validate before the log_* "
                   "append and apply mutations only after it")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for function in ast.walk(module.tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            log_lines: list[int] = []
            apply_calls: list[tuple[int, str]] = []
            validate_lines: list[int] = []
            for node in ast.walk(function):
                if isinstance(node, ast.Raise):
                    validate_lines.append(node.lineno)
                    continue
                if not isinstance(node, ast.Call):
                    continue
                attr = call_attr(node)
                if attr is None:
                    continue
                if attr.startswith("log_"):
                    log_lines.append(node.lineno)
                elif attr in APPLY_ATTRS:
                    apply_calls.append((node.lineno, attr))
                if attr.startswith(VALIDATE_PREFIX) or attr in VALIDATE_ATTRS:
                    validate_lines.append(node.lineno)
            if not log_lines:
                continue
            first_log = min(log_lines)
            for line, attr in apply_calls:
                if line < first_log:
                    yield Finding(
                        rule=self.rule_id,
                        message=(
                            f"{function.name} applies {attr!r} on line "
                            f"{line} before the WAL append on line "
                            f"{first_log} — a crash in between loses the "
                            f"mutation from the log"
                        ),
                        path=module.path, line=line,
                    )
            if not any(line < first_log for line in validate_lines):
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        f"{function.name} appends to the WAL (line "
                        f"{first_log}) without validating first — the log "
                        f"may record an operation that fails on replay"
                    ),
                    path=module.path, line=first_log,
                )
