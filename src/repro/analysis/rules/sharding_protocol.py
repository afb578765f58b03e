"""REP005: every sharding command sent has a registered dispatcher arm.

The sharded engine speaks a tiny message protocol: the router sends
``(command, payload)`` pairs and every worker — process transport and
inline transport alike — routes them through the shared
``dispatch_command`` function in ``repro/sharding/worker.py``.  A
command string sent by the router but missing from the dispatcher is a
protocol hole: the process worker answers with an ``unknown command``
error at runtime, on whichever code path first exercises it.

This is a cross-module rule.  Per module (sharding modules only) it
collects:

* **registered** commands — string constants compared against a name
  ``command`` (the dispatcher's ``if command == "...":`` chain, plus the
  transport loop's ``"close"`` arm);
* **sent** commands — string-constant command arguments of ``.send`` /
  ``._post`` / ``._call`` / ``._broadcast`` calls, including the
  ``(command, payload)`` tuple form.

Replies travel the other direction inside a fixed two-status envelope —
``("ok", result)`` / ``("error", error)`` — which is part of the
protocol itself, not a command set, so those two strings are exempt.

:meth:`finalize` then reports every sent command with no registration.
When the analyzed set contains no registrations at all (e.g. a single
file passed on the CLI), the rule stays quiet rather than flagging every
send — it can only judge the protocol when it can see the dispatcher.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.framework import Finding, Module, Rule, register

SEND_ATTRS = frozenset({"send", "_post", "_call", "_broadcast"})

#: ``_call(shard_index, command, ...)`` and ``_post(shard_indexes,
#: command, ...)`` carry the command second.
COMMAND_ARG_INDEX = {"send": 0, "_broadcast": 0, "_call": 1, "_post": 1}

#: The worker→router reply envelope; fixed by the protocol, not commands.
REPLY_STATUSES = frozenset({"ok", "error"})


def _is_sharding_module(module: Module) -> bool:
    normalized = module.path.replace("\\", "/")
    return "sharding/" in normalized


def _registered_commands(module: Module) -> set[str]:
    registered: set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not (isinstance(node.left, ast.Name)
                and node.left.id == "command"):
            continue
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.In)):
                continue
            values = (comparator.elts
                      if isinstance(comparator, (ast.Tuple, ast.List,
                                                 ast.Set))
                      else [comparator])
            for value in values:
                if isinstance(value, ast.Constant) and isinstance(
                        value.value, str):
                    registered.add(value.value)
    return registered


def _sent_commands(module: Module) -> list[tuple[str, int]]:
    sent: list[tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in SEND_ATTRS):
            continue
        position = COMMAND_ARG_INDEX[node.func.attr]
        if len(node.args) <= position:
            continue
        argument = node.args[position]
        # ``connection.send((command, payload))`` tuple form.
        if (isinstance(argument, ast.Tuple) and argument.elts
                and node.func.attr == "send"):
            argument = argument.elts[0]
        if (isinstance(argument, ast.Constant)
                and isinstance(argument.value, str)
                and argument.value not in REPLY_STATUSES):
            sent.append((argument.value, node.lineno))
    return sent


@register
class ShardingProtocolHygiene(Rule):
    rule_id = "REP005"
    name = "sharding-protocol"
    description = ("every command sent to shard workers must be "
                   "registered in the shared dispatcher")

    def finalize(self, modules: Sequence[Module]) -> Iterator[Finding]:
        registered: set[str] = set()
        sends: list[tuple[Module, str, int]] = []
        for module in modules:
            if not _is_sharding_module(module):
                continue
            registered |= _registered_commands(module)
            for command, line in _sent_commands(module):
                sends.append((module, command, line))
        if not registered:
            return
        for module, command, line in sends:
            if command not in registered:
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        f"command {command!r} is sent to shard workers "
                        f"but has no arm in the shared dispatcher "
                        f"(dispatch_command) — workers will answer "
                        f"'unknown command' at runtime"
                    ),
                    path=module.path, line=line,
                )
