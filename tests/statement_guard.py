"""A pytest plugin that fails the test run when a statement of `src/qcspend`
never runs and `tests/data/unrun_statements.txt` does not list it, or when
a listed statement does run, so the list can only shrink.

Run it over the whole tier-1 suite (a subset leaves most statements unrun):

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src:tests python -m pytest -q -p statement_guard

It counts the statements inside function bodies, leaving out docstrings and
`global`/`nonlocal`.  A simple statement ran when a line event fired on any
of its lines; a compound one when one fired on a line of its header, or when
a statement inside it ran.  Line events differ between Python versions, so
the list is kept for Python 3.11.

Each line of the list is `module | function | stripped source text | reason`,
matched on the text and not on line numbers; `#` starts a comment line.  A
line whose text is that of more than one statement of its function fails the
guard too, since its reason could not say which one it covers: reword one of
them, or give it a test.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcspend"
LISTED = Path(__file__).resolve().parent / "data" / "unrun_statements.txt"

_hits: dict[str, set[int]] = {}
_problems: list[str] = []


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename in _hits:
        return _local
    return None


def pytest_configure(config):
    for path in sorted(PACKAGE.rglob("*.py")):
        _hits[str(path)] = set()
    threading.settrace(_global)
    sys.settrace(_global)


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement."""
    blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
    blocks += [handler.body for handler in getattr(stmt, "handlers", [])]
    blocks += [case.body for case in getattr(stmt, "cases", [])]
    return [child for block in blocks for child in block]


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose events show that `stmt` ran: all of a simple
    statement's, and a compound statement's header."""
    children = _children(stmt)
    if not children:
        return range(stmt.lineno, stmt.end_lineno + 1)
    return range(stmt.lineno, max(stmt.lineno + 1, children[0].lineno))


def _statements(tree: ast.Module):
    """(function qualname, statement) for each statement inside a function
    body, docstrings and `global`/`nonlocal` left out."""

    def walk(body, scope, in_function):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function:
                    yield scope, stmt
                inner = f"{scope}.{stmt.name}" if scope else stmt.name
                is_function = not isinstance(stmt, ast.ClassDef)
                yield from walk(_body(stmt) if is_function else stmt.body, inner, is_function)
            elif in_function and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                yield scope, stmt
                yield from walk(_children(stmt), scope, True)
            else:
                yield from walk(_children(stmt), scope, False)

    yield from walk(tree.body, "", False)


def _body(function) -> list[ast.stmt]:
    body = function.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
        return body[1:]
    return body


def _ran(stmt: ast.stmt, hits: set[int]) -> bool:
    return any(line in hits for line in _own_lines(stmt)) or any(_ran(child, hits) for child in _children(stmt))


def problems(modules: list[tuple[str, str, str, set[int]]], allowed: Counter) -> list[str]:
    """What the guard fails on, given (module, file name, source, lines
    hit) for each module and the listed keys `allowed`: each statement that
    never ran and is not listed, each listed key whose text is that of more
    than one statement of its function, and each listed key left over."""
    found, left, statements = [], Counter(allowed), Counter()
    for module, name, source, hits in modules:
        lines = source.splitlines()
        for function, stmt in _statements(ast.parse(source)):
            key = (module, function, lines[stmt.lineno - 1].strip())
            statements[key] += 1
            if _ran(stmt, hits):
                continue
            if left[key]:
                left[key] -= 1
            else:
                found.append(f"never runs and is not listed: {' | '.join(key)}  ({name}:{stmt.lineno})")
    for key in sorted(allowed):
        if statements[key] > 1:
            found.append(f"listed text is that of {statements[key]} statements of its function: {' | '.join(key)}")
    for key in sorted(+left):
        found.append(f"listed but runs or is gone: {' | '.join(key)}")
    return found


def listed() -> Counter:
    keys: Counter = Counter()
    for line in LISTED.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            module, function, rest = line.split(" | ", 2)
            text, _reason = rest.rsplit(" | ", 1)
            keys[module, function, text] += 1
    return keys


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    modules = []
    for filename, hits in _hits.items():
        path = Path(filename)
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        modules.append((module, path.name, path.read_text(), hits))
    _problems.extend(problems(modules, listed()))
    if _problems and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statement guard")
    for problem in _problems:
        terminalreporter.write_line(problem)
    verdict = "fails" if _problems else "passes"
    terminalreporter.write_line(f"{len(_problems)} problems; the guard {verdict}")
