"""The invariant-linter framework: rules, findings, suppressions.

``repro.analysis`` is a repo-specific static-analysis subsystem: a small
pluggable AST-checker framework plus the rules under
``repro.analysis.rules`` that encode the engine's hand-maintained
invariants (validate→log→apply ordering, epoch discipline, hot-path
vectorization purity, sharding protocol hygiene, rationales on broad
excepts, result-cache lock discipline).
General-purpose lint stays with ruff; everything here is an invariant a
generic linter cannot know about.

The moving parts:

* :class:`Finding` — one structured diagnostic: rule id, message,
  ``path:line`` location.
* :class:`Rule` — base class.  Per-module rules override
  :meth:`Rule.check_module`; cross-module rules (the sharding dispatch
  check) collect state per module and report from :meth:`Rule.finalize`,
  which runs once after every module has been visited.
* :class:`Module` — a parsed file: source, AST, real comments (extracted
  with :mod:`tokenize`, so string literals containing comment-looking
  text — e.g. lint-fixture snippets in tests — are never misread),
  suppressions and markers.
* Suppressions — ``# repro: ignore[REP004] -- why this is fine`` on the
  flagged line, or standalone on the line above.  The rationale after
  ``--`` is **mandatory**, and a suppression that stops matching any
  finding is itself reported (:data:`HYGIENE_RULE_ID`): the policy is
  explicit per-site waivers with reasons, never silent allowlists.
* Markers — ``# repro: hot-module`` opts a whole module into the
  vectorization-purity rule's scope (see ``rules/hot_path.py``).

Adding a rule: subclass :class:`Rule` in a module under
``repro.analysis.rules``, decorate it with :func:`register`, and import
it from ``rules/__init__.py``.  Give it a fresh ``REPnnn`` id, a fixture
test that proves it fires, and a near-miss fixture that proves it stays
quiet (see ``tests/test_analysis_rules.py``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Rule id used for the linter's own hygiene findings: unparsable files,
#: suppressions without a rationale, suppressions that match nothing and
#: suppressions naming unknown rules.  Not suppressible.
HYGIENE_RULE_ID = "REP000"

_SUPPRESSION_RE = re.compile(
    r"repro:\s*ignore\[(?P<ids>[A-Za-z0-9_,\s]+)\]"
    r"(?:\s*--\s*(?P<rationale>.*\S))?"
)
_MARKER_RE = re.compile(r"repro:\s*(?P<marker>[a-z][a-z-]*)\s*$")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: which rule fired, where, and why."""

    rule: str
    message: str
    path: str
    line: int

    def render(self) -> str:
        """The canonical one-line form, ``path:line: RULE message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One inline ``# repro: ignore[...]`` waiver."""

    line: int
    rule_ids: tuple[str, ...]
    rationale: str | None
    standalone: bool  # comment-only line (covers the line below)
    used: bool = False


@dataclass
class Module:
    """A parsed source file plus everything rules need to inspect it."""

    path: str
    source: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    markers: frozenset[str] = frozenset()

    @classmethod
    def from_source(cls, source: str, path: str = "<memory>") -> "Module":
        """Parse ``source``; ``path`` drives display and rule scoping.

        Raises:
            SyntaxError: If the source does not parse — the analyzer turns
                this into a :data:`HYGIENE_RULE_ID` finding.
        """
        tree = ast.parse(source, filename=path)
        comments = _extract_comments(source)
        suppressions: dict[int, Suppression] = {}
        markers: set[str] = set()
        for line, (text, standalone) in comments.items():
            match = _SUPPRESSION_RE.search(text)
            if match:
                rule_ids = tuple(
                    part.strip() for part in match.group("ids").split(",")
                    if part.strip()
                )
                suppressions[line] = Suppression(
                    line=line, rule_ids=rule_ids,
                    rationale=match.group("rationale"),
                    standalone=standalone,
                )
                continue
            match = _MARKER_RE.search(text)
            if match:
                markers.add(match.group("marker"))
        return cls(
            path=path, source=source, tree=tree,
            comments={line: text for line, (text, _) in comments.items()},
            suppressions=suppressions, markers=frozenset(markers),
        )

    @classmethod
    def from_path(cls, path: Path, display: str | None = None) -> "Module":
        """Load and parse a file from disk."""
        source = path.read_text(encoding="utf-8")
        return cls.from_source(source, display or str(path))

    def suppression_for(self, line: int) -> Suppression | None:
        """The suppression covering ``line``.

        Either inline on the line itself, or in the standalone comment
        block immediately above it (the rationale may wrap onto plain
        continuation comment lines below the ``repro: ignore`` line).
        """
        direct = self.suppressions.get(line)
        if direct is not None:
            return direct
        current = line - 1
        while current > 0:
            suppression = self.suppressions.get(current)
            if suppression is not None:
                return suppression if suppression.standalone else None
            comment = self.comments.get(current)
            if comment is None or current not in self._standalone_lines():
                return None
            current -= 1
        return None

    def _standalone_lines(self) -> frozenset[int]:
        lines = self.source.splitlines()
        return frozenset(
            line for line in self.comments
            if line <= len(lines)
            and not lines[line - 1].split("#", 1)[0].strip()
        )


def _extract_comments(source: str) -> dict[int, tuple[str, bool]]:
    """Real comments per line, via tokenize: ``{line: (text, standalone)}``.

    Tokenizing (rather than regex over raw lines) is what keeps comment
    syntax inside string literals — lint-rule fixtures embed plenty —
    from registering as live suppressions in the embedding file.
    """
    comments: dict[int, tuple[str, bool]] = {}
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            line, column = token.start
            prefix = lines[line - 1][:column] if line <= len(lines) else ""
            comments[line] = (token.string, not prefix.strip())
    except tokenize.TokenError:
        # A tokenization failure past some point just truncates the
        # comment map; the AST parse error (if any) is reported separately.
        pass
    return comments


class Rule:
    """Base class for one invariant check.

    Subclasses set ``rule_id`` / ``name`` / ``description`` and override
    :meth:`check_module` (per-file rules) and/or :meth:`finalize`
    (cross-module rules, called once after every module was visited).
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        return iter(())

    def finalize(self, modules: Sequence[Module]) -> Iterator[Finding]:
        """Yield findings that need the whole module set."""
        return iter(())


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    import repro.analysis.rules  # noqa: F401 - imports register the rules

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def known_rule_ids() -> frozenset[str]:
    """Every registered rule id (plus the hygiene pseudo-rule)."""
    import repro.analysis.rules  # noqa: F401 - imports register the rules

    return frozenset(_REGISTRY) | {HYGIENE_RULE_ID}


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def load_modules(files: Sequence[Path],
                 root: Path | None = None) -> tuple[list[Module], list[Finding]]:
    """Parse ``files``; unparsable ones become hygiene findings."""
    modules: list[Module] = []
    errors: list[Finding] = []
    for file_path in files:
        display = file_path
        if root is not None:
            try:
                display = file_path.relative_to(root)
            except ValueError:
                display = file_path
        try:
            modules.append(Module.from_path(file_path, str(display)))
        except SyntaxError as error:
            errors.append(Finding(
                rule=HYGIENE_RULE_ID,
                message=f"file does not parse: {error.msg}",
                path=str(display), line=error.lineno or 1,
            ))
    return modules, errors


def analyze_modules(modules: Sequence[Module],
                    rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Run ``rules`` over ``modules`` and apply the suppression policy.

    Returns the surviving findings plus any suppression-hygiene findings
    (missing rationale, unknown rule id, unused suppression), sorted by
    location.  A finding is suppressed when a matching
    ``# repro: ignore[<rule>]`` sits on its line or standalone on the
    line above — but a suppression without a rationale suppresses
    nothing.
    """
    if rules is None:
        rules = all_rules()
    known = known_rule_ids() | {rule.rule_id for rule in rules}
    by_path = {module.path: module for module in modules}

    raw: list[Finding] = []
    for rule in rules:
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.finalize(modules))

    survivors: list[Finding] = []
    for finding in raw:
        module = by_path.get(finding.path)
        suppression = (module.suppression_for(finding.line)
                       if module is not None else None)
        if (suppression is not None
                and finding.rule in suppression.rule_ids
                and finding.rule != HYGIENE_RULE_ID
                and suppression.rationale):
            suppression.used = True
            continue
        survivors.append(finding)

    for module in modules:
        for suppression in module.suppressions.values():
            if not suppression.rationale:
                survivors.append(Finding(
                    rule=HYGIENE_RULE_ID,
                    message=("suppression without a rationale: write "
                             "'# repro: ignore[RULE] -- why it is safe'"),
                    path=module.path, line=suppression.line,
                ))
            unknown = [rule_id for rule_id in suppression.rule_ids
                       if rule_id not in known]
            for rule_id in unknown:
                survivors.append(Finding(
                    rule=HYGIENE_RULE_ID,
                    message=f"suppression names unknown rule {rule_id!r}",
                    path=module.path, line=suppression.line,
                ))
            if suppression.rationale and not suppression.used and not unknown:
                survivors.append(Finding(
                    rule=HYGIENE_RULE_ID,
                    message=("unused suppression (no matching finding on "
                             "this line): delete it"),
                    path=module.path, line=suppression.line,
                ))

    return sorted(survivors, key=lambda f: (f.path, f.line, f.rule))


def analyze_paths(paths: Iterable[Path], rules: Sequence[Rule] | None = None,
                  root: Path | None = None) -> list[Finding]:
    """Convenience wrapper: expand paths, parse, analyze."""
    files = iter_python_files(paths)
    modules, errors = load_modules(files, root=root)
    return sorted(errors + analyze_modules(modules, rules=rules),
                  key=lambda f: (f.path, f.line, f.rule))


# ---------------------------------------------------------------- AST helpers
# Shared by several rules; kept here so each rule module stays focused on
# its invariant.

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_attr(node: ast.Call) -> str | None:
    """The attribute name of ``<receiver>.<attr>(...)``, else None."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def self_attr_target(node: ast.AST) -> str | None:
    """``x`` when ``node`` is the attribute ``self.x``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def iter_methods(class_node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    """Direct function members of a class (sync defs only)."""
    for node in class_node.body:
        if isinstance(node, ast.FunctionDef):
            yield node
