"""Whole-program project model: parsed modules, dotted names, imports.

The per-file linter (:mod:`repro.devtools.lint`) sees one module at a
time; the analyses in :mod:`repro.devtools.analyze` need the *project*:
which modules exist, what each one imports (and whether the import is
executed at module scope or deferred into a function body), and which
top-level symbols each module defines.  :class:`Project` is that view,
built once and shared by every analysis.

Module names are derived from the filesystem: a file belongs to the
dotted package spelled by the chain of ``__init__.py`` directories above
it (``src/repro/serve/protocol.py`` → ``repro.serve.protocol``).  Tests
build projects from in-memory sources via :meth:`Project.from_sources`.

Like the lint engine, everything here is stdlib-``ast`` only, so the
analyzer runs anywhere the simulator runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.devtools.lint.engine import ParsedModule, iter_python_files

from repro.devtools.analyze.callgraph import CallGraph


@dataclass(frozen=True)
class ImportEdge:
    """One import statement in one module.

    Attributes:
        target: The imported module's dotted name (relative imports are
            resolved against the importing module's package).
        names: Names bound by a ``from target import a, b`` statement
            (empty for a plain ``import target``).
        line: 1-based line of the import statement.
        deferred: Whether the import sits inside a function body (a lazy
            import, executed at call time) rather than at module scope.
    """

    target: str
    names: Tuple[str, ...]
    line: int
    deferred: bool


@dataclass(frozen=True)
class ProjectModule:
    """One module of the project: dotted name, parse, import edges."""

    name: str
    parsed: ParsedModule
    imports: Tuple[ImportEdge, ...]

    @property
    def parts(self) -> Tuple[str, ...]:
        """The dotted name split into components."""
        return tuple(self.name.split("."))

    @property
    def path(self) -> str:
        """The module's file path as given to the engine."""
        return self.parsed.path


def module_name_for(path: Path) -> str:
    """The dotted module name the filesystem implies for ``path``.

    Walks up from the file while ``__init__.py`` marks each directory as
    a package.  A file outside any package is its bare stem.
    """
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:  # filesystem root
            break
        directory = parent
    if not parts:  # a bare __init__.py outside any package chain
        parts.append(path.parent.name)
    return ".".join(reversed(parts))


def _collect_imports(module_name: str, tree: ast.Module) -> Tuple[ImportEdge, ...]:
    """Every import in ``tree``, marked deferred when inside a function."""
    edges: List[ImportEdge] = []
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""

    def resolve_relative(level: int, target: Optional[str]) -> Optional[str]:
        if level == 0:
            return target
        base_parts = package.split(".") if package else []
        # level=1 is the current package; each extra level climbs one.
        climb = level - 1
        if climb > len(base_parts):
            return None
        base = base_parts[: len(base_parts) - climb]
        if target:
            base = base + target.split(".")
        return ".".join(base) if base else None

    def is_type_checking_guard(node: ast.AST) -> bool:
        # `if TYPE_CHECKING:` blocks never execute at runtime, so their
        # imports are deferred for layering/cycle purposes.
        if not isinstance(node, ast.If):
            return False
        test = node.test
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    def visit(node: ast.AST, deferred: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_deferred = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) or is_type_checking_guard(child)
            if isinstance(child, ast.Import):
                for alias in child.names:
                    edges.append(
                        ImportEdge(
                            target=alias.name,
                            names=(),
                            line=child.lineno,
                            deferred=deferred,
                        )
                    )
            elif isinstance(child, ast.ImportFrom):
                target = resolve_relative(child.level, child.module)
                if target is not None:
                    edges.append(
                        ImportEdge(
                            target=target,
                            names=tuple(alias.name for alias in child.names),
                            line=child.lineno,
                            deferred=deferred,
                        )
                    )
            visit(child, child_deferred)

    visit(tree, False)
    return tuple(edges)


class Project:
    """The whole-program view every cross-module analysis runs on."""

    def __init__(self, modules: Sequence[ProjectModule]) -> None:
        self._modules: Dict[str, ProjectModule] = {}
        for module in modules:
            self._modules[module.name] = module
        self._callgraph: Optional[CallGraph] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from ``{dotted_name: source}`` (test helper).

        Raises:
            SyntaxError: When a source does not parse.
        """
        modules = []
        for name, source in sorted(sources.items()):
            path = name.replace(".", "/") + ".py"
            parsed = ParsedModule.from_source(source, path)
            modules.append(
                ProjectModule(
                    name=name,
                    parsed=parsed,
                    imports=_collect_imports(name, parsed.tree),
                )
            )
        return cls(modules)

    # -- lookup -------------------------------------------------------------

    def modules(self) -> Tuple[ProjectModule, ...]:
        """Every module, in sorted dotted-name order."""
        return tuple(
            self._modules[name] for name in sorted(self._modules)
        )

    def get(self, name: str) -> Optional[ProjectModule]:
        """The module with exactly this dotted name, if present."""
        return self._modules.get(name)

    def find_suffix(self, suffix: str) -> Optional[ProjectModule]:
        """The unique module whose dotted name ends with ``suffix``.

        Used to locate well-known modules (``serve.protocol``,
        ``serve.loadgen``) in both the real tree and fixture projects.
        Returns ``None`` when absent or ambiguous.
        """
        matches = [
            module
            for name, module in self._modules.items()
            if name == suffix or name.endswith("." + suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def is_internal(self, dotted: str) -> bool:
        """Whether ``dotted`` names a project module (or package)."""
        if dotted in self._modules:
            return True
        prefix = dotted + "."
        return any(name.startswith(prefix) for name in self._modules)

    @property
    def callgraph(self) -> CallGraph:
        """The project call graph, built on first use and cached."""
        if self._callgraph is None:
            self._callgraph = CallGraph.build(self)
        return self._callgraph


def load_project(
    paths: Sequence[str],
) -> Tuple[Project, List[str], int]:
    """Parse every Python file under ``paths`` into a project.

    Returns ``(project, errors, files_checked)``; unreadable or
    syntactically invalid files are reported in ``errors`` and excluded
    from the project rather than aborting the build.
    """
    modules: List[ProjectModule] = []
    errors: List[str] = []
    seen: Dict[str, str] = {}
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as error:
            errors.append(f"{file_path}: {error}")
            continue
        try:
            parsed = ParsedModule.from_source(source, str(file_path))
        except SyntaxError as error:
            errors.append(
                f"{file_path}:{error.lineno or 0}: syntax error: {error.msg}"
            )
            continue
        name = module_name_for(file_path)
        if name in seen:
            errors.append(
                f"{file_path}: module name {name!r} already provided by "
                f"{seen[name]}"
            )
            continue
        seen[name] = str(file_path)
        modules.append(
            ProjectModule(
                name=name,
                parsed=parsed,
                imports=_collect_imports(name, parsed.tree),
            )
        )
    return Project(modules), errors, len(modules)


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
    """Yield ``(qualname, class_name, node)`` for every function in a module.

    Nested functions carry dotted qualnames (``outer.inner``);
    ``class_name`` is the *innermost* enclosing class, or ``None`` for
    plain functions.
    """

    def walk(
        node: ast.AST, prefix: str, class_name: Optional[str]
    ) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, class_name, child
                yield from walk(child, qualname + ".", class_name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(
                    child, f"{prefix}{child.name}.", child.name
                )

    yield from walk(tree, "", None)
