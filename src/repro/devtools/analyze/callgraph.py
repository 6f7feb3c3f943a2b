"""Best-effort whole-program call graph over a :class:`Project`.

Python cannot be resolved exactly without running it; this graph is a
conservative static approximation good enough for the reachability and
taint questions the analyses ask:

* ``name(...)`` resolves through the module symbol table — a top-level
  ``def``, a class (to its ``__init__``), or a ``from x import name``
  (followed into the project when ``x`` is internal, recorded as the
  external dotted path ``x.name`` otherwise);
* ``mod.attr(...)`` resolves through import aliases — internal modules
  yield project functions, external modules yield dotted paths like
  ``time.sleep``;
* ``self.method(...)`` / ``cls.method(...)`` resolve within the
  enclosing class, then through base classes that are themselves
  resolvable project classes;
* anything else (calls on arbitrary expressions, dynamic dispatch)
  stays unresolved but keeps its attribute *tail* so pattern-based
  checks (``.write_text(...)``) can still match.

Function ids are ``"<module>:<qualname>"`` (``repro.serve.shard:ShardedServer._route``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # circular at runtime: project builds the callgraph
    from repro.devtools.analyze.project import Project, ProjectModule


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; None for other shapes."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression, with its best-effort resolution.

    Attributes:
        caller: Function id of the enclosing function.
        callee: Function id of the resolved *project* callee, if any.
        external: Dotted path of the resolved *external* callee
            (``time.sleep``), or the bare name for unresolved ``name(...)``
            calls; ``None`` for calls on arbitrary expressions.
        tail: The final name of the call target (``drain`` in
            ``writer.drain()``) — always available.
        line: 1-based source line of the call.
        col: 0-based column of the call.
    """

    caller: str
    callee: Optional[str]
    external: Optional[str]
    tail: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    fid: str
    module: str
    qualname: str
    name: str
    is_async: bool
    class_name: Optional[str]
    node: ast.AST
    line: int


@dataclass
class ClassInfo:
    """One class: its methods and (syntactic) base-class names."""

    module: str
    name: str
    methods: Dict[str, str] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()


class _ModuleScope:
    """Name-resolution environment of one module."""

    def __init__(self) -> None:
        # name -> ("func", fid) | ("class", "module.Class") |
        #         ("module", dotted) | ("external", dotted)
        self.symbols: Dict[str, Tuple[str, str]] = {}


class CallGraph:
    """Functions, classes, and resolved call edges of a project."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls_from: Dict[str, List[CallSite]] = {}
        self._scopes: Dict[str, _ModuleScope] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, project: "Project") -> "CallGraph":
        """Index every function and resolve every call in ``project``."""
        graph = cls()
        for module in project.modules():
            graph._index_module(module)
        for module in project.modules():
            graph._bind_imports(project, module)
        for module in project.modules():
            graph._resolve_calls(module)
        return graph

    def _index_module(self, module: "ProjectModule") -> None:
        from repro.devtools.analyze.project import iter_functions

        scope = _ModuleScope()
        self._scopes[module.name] = scope
        for qualname, class_name, node in iter_functions(module.parsed.tree):
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            fid = f"{module.name}:{qualname}"
            self.functions[fid] = FunctionInfo(
                fid=fid,
                module=module.name,
                qualname=qualname,
                name=node.name,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                class_name=class_name,
                node=node,
                line=node.lineno,
            )
            self.calls_from[fid] = []
            if "." not in qualname:
                scope.symbols[node.name] = ("func", fid)
        for stmt in module.parsed.tree.body:
            if isinstance(stmt, ast.ClassDef):
                cid = f"{module.name}.{stmt.name}"
                methods = {
                    child.name: f"{module.name}:{stmt.name}.{child.name}"
                    for child in stmt.body
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                }
                bases: List[str] = []
                for base in stmt.bases:
                    parts = dotted_parts(base)
                    if parts is not None:
                        bases.append(parts[-1])
                self.classes[cid] = ClassInfo(
                    module=module.name,
                    name=stmt.name,
                    methods=methods,
                    bases=tuple(bases),
                )
                scope.symbols[stmt.name] = ("class", cid)

    def _bind_imports(self, project: "Project", module: "ProjectModule") -> None:
        """Record what each imported name means inside ``module``."""
        scope = self._scopes[module.name]
        tree = module.parsed.tree
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.asname is not None:
                        target = alias.name
                    else:
                        # "import a.b" binds "a"; only a.b's root resolves.
                        target = alias.name.split(".")[0]
                    kind = "module" if project.is_internal(target) else "external"
                    scope.symbols.setdefault(bound, (kind, target))
            elif isinstance(stmt, ast.ImportFrom):
                target = self._absolute_from(module, stmt)
                if target is None:
                    continue
                internal = project.is_internal(target)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    if internal:
                        resolved = self._lookup_in_module(
                            project, target, alias.name
                        )
                        if resolved is not None:
                            scope.symbols.setdefault(bound, resolved)
                            continue
                        submodule = f"{target}.{alias.name}"
                        if project.is_internal(submodule):
                            scope.symbols.setdefault(
                                bound, ("module", submodule)
                            )
                            continue
                        scope.symbols.setdefault(bound, ("module", target))
                    else:
                        scope.symbols.setdefault(
                            bound, ("external", f"{target}.{alias.name}")
                        )

    @staticmethod
    def _absolute_from(
        module: "ProjectModule", stmt: ast.ImportFrom
    ) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module
        package_parts = list(module.parts[:-1])
        climb = stmt.level - 1
        if climb > len(package_parts):
            return None
        base = package_parts[: len(package_parts) - climb]
        if stmt.module:
            base = base + stmt.module.split(".")
        return ".".join(base) if base else None

    def _lookup_in_module(
        self, project: "Project", module_name: str, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` as a def/class at the top of ``module_name``."""
        if project.get(module_name) is None:
            return None
        fid = f"{module_name}:{name}"
        if fid in self.functions and "." not in name:
            return ("func", fid)
        cid = f"{module_name}.{name}"
        if cid in self.classes:
            return ("class", cid)
        return None

    # -- call resolution ----------------------------------------------------

    def _resolve_calls(self, module: "ProjectModule") -> None:
        from repro.devtools.analyze.project import iter_functions

        for qualname, class_name, node in iter_functions(module.parsed.tree):
            fid = f"{module.name}:{qualname}"
            sites = self.calls_from[fid]
            for call in self._iter_own_calls(node):
                sites.append(
                    self.resolve_call(module.name, class_name, fid, call)
                )

    @staticmethod
    def _iter_own_calls(func: ast.AST) -> List[ast.Call]:
        """Call expressions in ``func``, excluding nested function bodies."""
        calls: List[ast.Call] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(child, ast.Call):
                    calls.append(child)
                visit(child)

        visit(func)
        return calls

    def resolve_call(
        self,
        module_name: str,
        class_name: Optional[str],
        caller_fid: str,
        call: ast.Call,
    ) -> CallSite:
        """Resolve one call expression into a :class:`CallSite`."""
        scope = self._scopes[module_name]
        func = call.func
        callee: Optional[str] = None
        external: Optional[str] = None
        tail = "<call>"

        if isinstance(func, ast.Name):
            tail = func.id
            entry = scope.symbols.get(func.id)
            if entry is None:
                external = func.id  # unshadowed builtin or unknown name
            else:
                callee, external = self._entry_target(entry, ())
        else:
            parts = dotted_parts(func)
            if parts is not None:
                tail = parts[-1]
                head, rest = parts[0], parts[1:]
                if head in ("self", "cls") and class_name is not None:
                    if len(rest) == 1:
                        callee = self._method_of(
                            f"{module_name}.{class_name}", rest[0]
                        )
                else:
                    entry = scope.symbols.get(head)
                    if entry is not None:
                        callee, external = self._entry_target(entry, rest)
            elif isinstance(func, ast.Attribute):
                tail = func.attr

        return CallSite(
            caller=caller_fid,
            callee=callee,
            external=external,
            tail=tail,
            line=call.lineno,
            col=call.col_offset,
        )

    def _entry_target(
        self, entry: Tuple[str, str], rest: Tuple[str, ...]
    ) -> Tuple[Optional[str], Optional[str]]:
        """(callee_fid, external_dotted) for a symbol plus attribute tail."""
        kind, value = entry
        if kind == "func":
            if not rest:
                return value, None
            return None, None
        if kind == "class":
            if not rest:
                return self._method_of(value, "__init__"), None
            if len(rest) == 1:
                return self._method_of(value, rest[0]), None
            return None, None
        if kind == "module":
            if len(rest) == 1:
                fid = f"{value}:{rest[0]}"
                if fid in self.functions:
                    return fid, None
                cid = f"{value}.{rest[0]}"
                if cid in self.classes:
                    return self._method_of(cid, "__init__"), None
            return None, None
        # external module or external name
        if rest:
            return None, value + "." + ".".join(rest)
        return None, value

    def _method_of(
        self, cid: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve a method by name on a class or its project bases."""
        seen = _seen if _seen is not None else set()
        if cid in seen:
            return None
        seen.add(cid)
        info = self.classes.get(cid)
        if info is None:
            return None
        fid = info.methods.get(method)
        if fid is not None:
            return fid
        for base_name in info.bases:
            entry = self._scopes[info.module].symbols.get(base_name)
            if entry is not None and entry[0] == "class":
                resolved = self._method_of(entry[1], method, seen)
                if resolved is not None:
                    return resolved
        return None

    # -- queries ------------------------------------------------------------

    def async_functions(self) -> List[FunctionInfo]:
        """Every ``async def`` in the project."""
        return [info for info in self.functions.values() if info.is_async]
