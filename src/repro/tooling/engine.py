"""The ``repro-lint`` engine: sources, findings, suppressions, baseline.

The engine is deliberately rule-agnostic: it loads the file set a
:class:`LintConfig` describes, parses each file once, applies every
:class:`Rule`, drops findings silenced by inline suppression comments,
subtracts the checked-in baseline, and formats what is left as
``file:line: rule: message`` lines with a meaningful exit code.  The
project-specific knowledge lives entirely in :mod:`repro.tooling.rules`.

Two kinds of source files flow through a run:

* **package** files — the library tree under ``LintConfig.package_root``
  (``src/repro``), each with a resolved dotted module name that rules
  use for scoping (allowlists, hot-path prefixes);
* **script** files — ``examples/``, ``benchmarks/``, ``tests/`` — linted
  only by the rules that police the package boundary (private deep
  imports).

Baseline semantics: an entry matches a finding by ``(path, rule,
message)`` — deliberately *not* by line number, so unrelated edits above
a grandfathered finding do not invalidate the baseline.  Matching is
multiset-aware (two identical findings need two entries), every entry
carries a one-line justification, and entries that no longer match
anything are reported as stale so the baseline cannot quietly rot.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.tooling.ast_utils import (
    attach_parents,
    build_import_map,
    parse_suppressions,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str  #: project-root-relative posix path (stable across hosts).
    line: int  #: 1-based line number.
    rule: str  #: rule id (``repro-lint --list-rules``).
    message: str  #: human-readable explanation, line-number free.

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.path, self.rule, self.message)


class SourceFile:
    """One parsed source file plus the metadata rules need.

    Attributes:
        path: absolute filesystem path.
        rel: path relative to the project root (posix, used in reports).
        module: dotted module name for package files, ``None`` for
            scripts.
        kind: ``"package"`` or ``"script"``.
        tree: the parsed AST, with parent links attached.
        import_map: local alias → fully qualified name.
    """

    def __init__(
        self, path: Path, rel: str, module: Optional[str], kind: str
    ):
        self.path = path
        self.rel = rel
        self.module = module
        self.kind = kind
        self.text = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.text, filename=str(path))
        attach_parents(self.tree)
        self.import_map = build_import_map(self.tree)
        self._line_suppressions, self._file_suppressions = parse_suppressions(
            self.text
        )

    def suppressed(self, rule: str, line: int) -> bool:
        """True when an inline comment silences ``rule`` at ``line``."""
        if self._file_suppressions & {rule, "all"}:
            return True
        rules = self._line_suppressions.get(line, ())
        return rule in rules or "all" in rules

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SourceFile({self.rel!r}, module={self.module!r})"


class Rule:
    """Base class for lint rules.

    A rule implements :meth:`check` (called once per package file) or
    :meth:`finalize` (called once with every loaded source, for
    project-wide invariants like protocol exhaustiveness), or both.
    """

    #: Rule id used in reports, ``--select``, suppressions, baselines.
    name: str = ""
    #: One-line summary shown by ``repro-lint --list-rules``.
    description: str = ""

    def check(
        self, source: SourceFile, config: "LintConfig"
    ) -> List[Finding]:
        return []

    def finalize(
        self, sources: Sequence[SourceFile], config: "LintConfig"
    ) -> List[Finding]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class LintConfig:
    """What to lint and the per-rule policy knobs.

    The defaults encode this repository's invariants; the tests override
    them to point the same rules at fixture trees.  All paths are
    relative to ``root``.
    """

    #: Project root every relative path below is resolved against.
    root: Path = field(default_factory=Path.cwd)
    #: Directory holding the package to lint.
    package_root: str = "src/repro"
    #: Dotted name of the package at ``package_root``.
    package_name: str = "repro"
    #: Directories holding scripts policed for private deep imports.
    script_roots: Tuple[str, ...] = ("examples", "benchmarks", "tests")
    #: Relative path prefixes excluded everywhere (fixture trees with
    #: deliberate violations live under tests/fixtures).
    exclude: Tuple[str, ...] = ("tests/fixtures",)
    #: Modules allowed to import pickle (the documented, trusted-operator
    #: transport SETUP path; see the pickle-boundary rule).
    pickle_allowlist: Tuple[str, ...] = (
        "repro.fl.transport.worker",
        "repro.fl.transport.client",
    )
    #: Hot-path module prefixes where array allocations must pin a dtype.
    dtype_modules: Tuple[str, ...] = (
        "repro.aggregators",
        "repro.core",
        "repro.fl",
    )
    #: Module prefixes allowed to read the wall clock.
    wallclock_allowed: Tuple[str, ...] = ("repro.perf",)
    #: Modules audited to call the dense O(n²) GradientBatch accessors
    #: (``gram``/``sq_distances``/``distances``/``cosine_similarities``):
    #: the batch itself (internal memoization) and Bulyan, whose iterative
    #: sub-matrix selection is inherently dense and documented to refuse
    #: above the streaming threshold.  Everything else must use the
    #: blocked primitives (see the pairwise-discipline rule).
    pairwise_allowlist: Tuple[str, ...] = (
        "repro.utils.batch",
        "repro.aggregators.bulyan",
    )
    #: Module defining the transport's ``MSG_*`` constants.
    protocol_module: str = "repro.fl.transport.codec"
    #: Modules that must dispatch every message type (worker side).
    protocol_worker_modules: Tuple[str, ...] = ("repro.fl.transport.worker",)
    #: Modules that must dispatch every message type (caller side).
    protocol_caller_modules: Tuple[str, ...] = (
        "repro.fl.transport.client",
        "repro.fl.transport.protocol",
    )
    #: Checked-in baseline of grandfathered findings.
    baseline_path: str = "lint-baseline.json"

    def with_root(self, root: Path) -> "LintConfig":
        return replace(self, root=Path(root))

    def module_in(self, module: Optional[str], prefixes: Iterable[str]) -> bool:
        """True when ``module`` equals or lives under any of ``prefixes``."""
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in prefixes
        )


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding, with its one-line justification."""

    path: str
    rule: str
    message: str
    justification: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.path, self.rule, self.message)


class Baseline:
    """The checked-in set of grandfathered findings."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()):
        self.entries: List[BaselineEntry] = list(entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Load a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(
                f"baseline file {path} is not a repro-lint baseline "
                "(expected a JSON object with an 'entries' list)"
            )
        entries = [
            BaselineEntry(
                path=str(entry["path"]),
                rule=str(entry["rule"]),
                message=str(entry["message"]),
                justification=str(entry.get("justification", "")),
            )
            for entry in payload["entries"]
        ]
        return cls(entries)

    def save(self, path: Path) -> None:
        payload = {
            "version": 1,
            "entries": [
                {
                    "path": entry.path,
                    "rule": entry.rule,
                    "message": entry.message,
                    "justification": entry.justification
                    or "TODO: justify this grandfathered finding",
                }
                for entry in sorted(self.entries, key=lambda e: e.key)
            ],
        }
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    def split(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Partition findings into (active, baselined) + stale entries.

        Matching is by ``(path, rule, message)`` and multiset-aware: each
        baseline entry absorbs at most one finding, and entries left
        unmatched are returned as stale.
        """
        budget = Counter(entry.key for entry in self.entries)
        active: List[Finding] = []
        baselined: List[Finding] = []
        for finding in findings:
            if budget.get(finding.baseline_key, 0) > 0:
                budget[finding.baseline_key] -= 1
                baselined.append(finding)
            else:
                active.append(finding)
        stale = [entry for entry in self.entries if budget.get(entry.key, 0) > 0]
        # Each stale key is reported once per unmatched occurrence.
        reported: List[BaselineEntry] = []
        seen: Counter = Counter()
        for entry in stale:
            if seen[entry.key] < budget[entry.key]:
                seen[entry.key] += 1
                reported.append(entry)
        return active, baselined, reported


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]  #: active findings (fail the run).
    baselined: List[Finding]  #: findings absorbed by the baseline.
    stale_baseline: List[BaselineEntry]  #: entries matching nothing.
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def all_findings(self) -> List[Finding]:
        """Active + baselined, in report order (for --update-baseline)."""
        return sorted(
            self.findings + self.baselined,
            key=lambda f: (f.path, f.line, f.rule),
        )


def _iter_python_files(base: Path) -> Iterable[Path]:
    if base.is_file():
        if base.suffix == ".py":
            yield base
        return
    yield from sorted(base.rglob("*.py"))


def collect_sources(
    config: LintConfig, paths: Optional[Sequence[str]] = None
) -> List[SourceFile]:
    """Load and parse the file set a config (or explicit paths) selects."""
    root = Path(config.root).resolve()
    package_base = root / config.package_root
    selected: Optional[List[Path]] = None
    if paths:
        selected = [(root / p).resolve() for p in paths]
    sources: List[SourceFile] = []
    seen: Set[Path] = set()

    def excluded(rel: str) -> bool:
        return any(
            rel == prefix or rel.startswith(prefix.rstrip("/") + "/")
            for prefix in config.exclude
        )

    def wanted(path: Path) -> bool:
        if selected is None:
            return True
        return any(
            path == choice or choice in path.parents for choice in selected
        )

    package_parent = package_base.parent
    for path in _iter_python_files(package_base):
        rel = path.relative_to(root).as_posix()
        if excluded(rel) or not wanted(path) or path in seen:
            continue
        module_parts = path.relative_to(package_parent).with_suffix("").parts
        if module_parts[-1] == "__init__":
            module_parts = module_parts[:-1]
        module = ".".join(module_parts)
        sources.append(SourceFile(path, rel, module, "package"))
        seen.add(path)
    for script_root in config.script_roots:
        base = root / script_root
        if not base.exists():
            continue
        for path in _iter_python_files(base):
            rel = path.relative_to(root).as_posix()
            if excluded(rel) or not wanted(path) or path in seen:
                continue
            sources.append(SourceFile(path, rel, None, "script"))
            seen.add(path)
    return sources


def run_rules(
    sources: Sequence[SourceFile],
    rules: Sequence[Rule],
    config: LintConfig,
) -> List[Finding]:
    """Apply every rule and drop inline-suppressed findings."""
    by_rel = {source.rel: source for source in sources}
    findings: List[Finding] = []
    for rule in rules:
        produced: List[Finding] = []
        for source in sources:
            if source.kind == "package":
                produced.extend(rule.check(source, config))
        produced.extend(rule.finalize(sources, config))
        for finding in produced:
            source = by_rel.get(finding.path)
            if source is not None and source.suppressed(
                finding.rule, finding.line
            ):
                continue
            findings.append(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def run_lint(
    config: LintConfig,
    *,
    rules: Optional[Sequence[Rule]] = None,
    paths: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """One full lint run: collect, check, suppress, subtract the baseline."""
    if rules is None:
        # Function-scope import: rules import the engine's dataclasses.
        from repro.tooling.rules import default_rules

        rules = default_rules()
    sources = collect_sources(config, paths)
    findings = run_rules(sources, rules, config)
    if baseline is None:
        baseline = Baseline.load(Path(config.root) / config.baseline_path)
    active, baselined, stale = baseline.split(findings)
    return LintResult(
        findings=active,
        baselined=baselined,
        stale_baseline=stale,
        files_checked=len(sources),
    )
