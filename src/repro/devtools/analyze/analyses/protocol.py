"""Protocol conformance: ops and error codes handled exactly once.

The wire protocol is the serve tier's public contract: every request
type (``op``) in ``serve/protocol.py`` must be dispatched by exactly
one ``_op_<name>`` handler, every error code must be declared in the
module's ``ERROR_CODES`` registry and actually produced somewhere in
the serve package, and every op must be exercised by the load
generator so protocol regressions cannot hide behind untested request
types.

Concretely, against the module whose dotted name ends in
``serve.protocol``:

1. every key in the ``_OPS`` dispatch table maps to a handler named
   ``_op_<key>`` (naming is the auditable 1:1 link between wire op and
   implementation);
2. every ``_op_*`` function is registered in ``_OPS`` exactly once —
   an unregistered handler is dead protocol surface;
3. duplicate ``_OPS`` keys (silent dict-literal override) are flagged;
4. every error code passed to ``_ProtocolError``/``_error``/
   ``error_response`` anywhere in the serve package appears in
   ``ERROR_CODES``, and every declared code is produced somewhere
   (no phantom codes in the docs/clients);
5. every op name appears as a string in the ``serve.loadgen`` module —
   the generator's verify mode is the protocol's executable spec;
6. every ``asyncio.start_server``/``asyncio.open_connection`` call in a
   module under a ``serve`` package passes ``limit=`` — asyncio's
   default 64 KiB line limit is below the protocol's, and a stream that
   silently keeps it drops the connection on a legal line.

Rule 6 runs on any serve package; rules 1-5 skip projects without a
``serve.protocol`` module (fixture trees for other analyses).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.lint.engine import Finding

from repro.devtools.analyze.callgraph import dotted_parts
from repro.devtools.analyze.engine import Analysis, register_analysis
from repro.devtools.analyze.project import Project, ProjectModule

#: Handler-name prefix that links an op to its implementation.
HANDLER_PREFIX = "_op_"

#: Call names whose first string argument is an error code.
ERROR_EMITTERS: Tuple[str, ...] = (
    "_ProtocolError",
    "_error",
    "error_response",
)

#: Name of the declared error-code registry in the protocol module.
ERROR_REGISTRY = "ERROR_CODES"

#: asyncio stream openers that must be given an explicit ``limit=``.
STREAM_OPENERS: Tuple[str, ...] = ("start_server", "open_connection")


def _find_ops_table(
    tree: ast.Module,
) -> Optional[Tuple[ast.AST, List[Tuple[str, int, Optional[str]]]]]:
    """The ``_OPS`` dict literal: (node, [(op, line, handler_name)])."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "_OPS"
            and isinstance(stmt.value, ast.Dict)
        ):
            entries: List[Tuple[str, int, Optional[str]]] = []
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                ):
                    continue
                handler = value.id if isinstance(value, ast.Name) else None
                entries.append((key.value, key.lineno, handler))
            return stmt, entries
    return None


def _declared_error_codes(
    tree: ast.Module,
) -> Optional[Tuple[int, Tuple[str, ...]]]:
    """The ``ERROR_CODES`` declaration: (line, codes)."""
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == ERROR_REGISTRY
                and isinstance(value, (ast.Tuple, ast.List, ast.Set))
            ):
                codes = tuple(
                    elt.value
                    for elt in value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
                return stmt.lineno, codes
    return None


def _emitted_codes(
    module: ProjectModule,
) -> Iterator[Tuple[str, int, int]]:
    """Every ``(code, line, col)`` passed to an error emitter."""
    for node in ast.walk(module.parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_parts(node.func)
        name = parts[-1] if parts else None
        if name not in ERROR_EMITTERS:
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield first.value, node.lineno, node.col_offset


def _unlimited_streams(module: ProjectModule) -> Iterator[ast.Call]:
    """Every ``asyncio`` stream-opener call without a ``limit=``."""
    for node in ast.walk(module.parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_parts(node.func)
        if parts is None or parts[-1] not in STREAM_OPENERS:
            continue
        if parts[:-1] not in ((), ("asyncio",)):
            continue
        if not any(keyword.arg == "limit" for keyword in node.keywords):
            yield node


def _string_constants(tree: ast.Module) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@register_analysis
class ProtocolConformanceAnalysis(Analysis):
    """Dispatch-table, error-code, and loadgen-coverage conformance."""

    name = "protocol-conformance"
    description = (
        "every wire op dispatched by exactly one _op_<name> handler, "
        "every error code declared in ERROR_CODES and produced, "
        "every op exercised by the load generator, and every serve "
        "stream opened with an explicit limit="
    )

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_stream_limits(project)
        protocol = project.find_suffix("serve.protocol")
        if protocol is None:
            return
        tree = protocol.parsed.tree

        ops_table = _find_ops_table(tree)
        if ops_table is None:
            yield self.finding(
                path=protocol.path,
                line=1,
                col=0,
                message=(
                    "protocol module defines no _OPS dict literal; the "
                    "dispatch table must be statically auditable"
                ),
            )
        else:
            yield from self._check_dispatch(protocol, ops_table[1])
            yield from self._check_loadgen(project, protocol, ops_table[1])
        yield from self._check_error_codes(project, protocol)

    # -- dispatch table ------------------------------------------------------

    def _check_dispatch(
        self,
        protocol: ProjectModule,
        entries: List[Tuple[str, int, Optional[str]]],
    ) -> Iterator[Finding]:
        handlers: Dict[str, int] = {
            stmt.name: stmt.lineno
            for stmt in protocol.parsed.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name.startswith(HANDLER_PREFIX)
        }
        seen_ops: Dict[str, int] = {}
        registered: Set[str] = set()
        for op, line, handler in entries:
            if op in seen_ops:
                yield self.finding(
                    path=protocol.path,
                    line=line,
                    col=0,
                    message=(
                        f"duplicate _OPS key {op!r} (first registered on "
                        f"line {seen_ops[op]}) silently overrides the "
                        "earlier handler"
                    ),
                )
                continue
            seen_ops[op] = line
            expected = HANDLER_PREFIX + op
            if handler is None:
                yield self.finding(
                    path=protocol.path,
                    line=line,
                    col=0,
                    message=(
                        f"op {op!r} is not dispatched to a named handler "
                        f"function; expected {expected}"
                    ),
                )
                continue
            registered.add(handler)
            if handler != expected:
                yield self.finding(
                    path=protocol.path,
                    line=line,
                    col=0,
                    message=(
                        f"op {op!r} is dispatched to {handler}; the handler "
                        f"must be named {expected} so the wire op and its "
                        "implementation stay auditable 1:1"
                    ),
                )
            elif handler not in handlers:
                yield self.finding(
                    path=protocol.path,
                    line=line,
                    col=0,
                    message=(
                        f"op {op!r} is dispatched to {handler}, which is "
                        "not defined in the protocol module"
                    ),
                )
        for handler, line in sorted(handlers.items()):
            if handler not in registered:
                yield self.finding(
                    path=protocol.path,
                    line=line,
                    col=0,
                    message=(
                        f"handler {handler} is not registered in _OPS: "
                        "dead protocol surface (register it or delete it)"
                    ),
                )

    # -- error codes ---------------------------------------------------------

    def _check_error_codes(
        self, project: Project, protocol: ProjectModule
    ) -> Iterator[Finding]:
        declared = _declared_error_codes(protocol.parsed.tree)
        if declared is None:
            yield self.finding(
                path=protocol.path,
                line=1,
                col=0,
                message=(
                    f"protocol module declares no {ERROR_REGISTRY} "
                    "tuple; error codes must be registered centrally"
                ),
            )
            return
        declared_line, declared_codes = declared
        serve_package = protocol.name.rsplit(".", 1)[0]
        used: Dict[str, Tuple[str, int, int]] = {}
        for module in project.modules():
            if not (
                module.name == serve_package
                or module.name.startswith(serve_package + ".")
            ):
                continue
            for code, line, col in _emitted_codes(module):
                used.setdefault(code, (module.path, line, col))
                if code not in declared_codes:
                    yield self.finding(
                        path=module.path,
                        line=line,
                        col=col,
                        message=(
                            f"error code {code!r} is not declared in "
                            f"{ERROR_REGISTRY}; clients cannot rely on "
                            "undeclared codes"
                        ),
                    )
        for code in declared_codes:
            if code not in used:
                yield self.finding(
                    path=protocol.path,
                    line=declared_line,
                    col=0,
                    message=(
                        f"declared error code {code!r} is never produced "
                        "by the serve package: phantom protocol surface"
                    ),
                )

    # -- stream limits -------------------------------------------------------

    def _check_stream_limits(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            if "serve" not in module.parts:
                continue
            for call in _unlimited_streams(module):
                opener = ".".join(dotted_parts(call.func) or ())
                yield self.finding(
                    path=module.path,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"{opener}() without limit=: the stream keeps "
                        "asyncio's 64 KiB line limit and drops the "
                        "connection on a longer legal line; pass "
                        "limit=MAX_LINE_BYTES"
                    ),
                )

    # -- loadgen coverage ----------------------------------------------------

    def _check_loadgen(
        self,
        project: Project,
        protocol: ProjectModule,
        entries: List[Tuple[str, int, Optional[str]]],
    ) -> Iterator[Finding]:
        loadgen = project.find_suffix("serve.loadgen")
        if loadgen is None:
            return
        exercised = _string_constants(loadgen.parsed.tree)
        for op, line, _ in entries:
            if op not in exercised:
                yield self.finding(
                    path=protocol.path,
                    line=line,
                    col=0,
                    message=(
                        f"op {op!r} is never exercised by the load "
                        "generator; extend loadgen's verify mode so every "
                        "request type has an executable spec"
                    ),
                )
