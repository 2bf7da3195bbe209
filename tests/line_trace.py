"""List the statements of the ``qwsim`` package that a run never executes.

Installs a line tracer (``sys.settrace`` and ``threading.settrace``)
before anything imports ``qwsim``, runs the given module in this process
as ``python -m`` would, and then prints each statement of ``src/qwsim``
that never ran, as ``path:line: source``.  Exits 1 if there is any, with
the run's own status if that is not 0, and 0 otherwise.

Statements are found by ``ast``: every statement but docstrings and the
``def``, ``class`` and import lines.  A compound statement (``if``,
``for``, ``try``, ...) ran when its header did; the statements of its
body are counted on their own.  Statements under ``if __name__ ==
"__main__":`` are exempt, since only running the module as a script
reaches them.

Run from the repository root, for example over tier-1::

    PYTHONPATH=src python tests/line_trace.py -m pytest -q -p no:cacheprovider

Standard library only; pytest collects no ``test_*`` name here.  Child
processes that the run starts are not traced.
"""

from __future__ import annotations

import ast
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qwsim"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = _DEFS + (ast.Import, ast.ImportFrom)


def _is_main_guard(node: ast.stmt) -> bool:
    """Whether ``node`` is ``if __name__ == "__main__":``."""
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and [type(op) for op in test.ops] == [ast.Eq]
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def _is_docstring(node: ast.stmt, body: list) -> bool:
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> dict[int, range]:
    """Each counted statement of ``source``, by its first line, with the
    lines on which a line event means it ran: a simple statement's own
    lines, a compound statement's header lines."""
    found: dict[int, range] = {}

    def visit(body: list, may_have_docstring: bool) -> None:
        for node in body:
            if may_have_docstring and _is_docstring(node, body) or _is_main_guard(node):
                continue
            bodies = [getattr(node, name, None) or [] for name in ("body", "orelse", "finalbody")]
            bodies += [handler.body for handler in getattr(node, "handlers", ())]
            if not isinstance(node, _SKIPPED):
                # a header runs up to the line before its first child statement
                end = min((inner[0].lineno for inner in bodies if inner), default=node.end_lineno + 1)
                found[node.lineno] = range(node.lineno, max(end, node.lineno + 1))
            for k, inner in enumerate(bodies):
                visit(inner, k == 0 and isinstance(node, _DEFS))

    visit(ast.parse(source).body, True)
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "-m":
        print("usage: python tests/line_trace.py -m MODULE [ARG ...]", file=sys.stderr)
        return 2
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}  # per resolved path, the lines that ran
    tracers: dict = {}  # per code file name, its line tracer, or None

    def line_tracer(lines: set[int]):
        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = str(Path(name).resolve()) if name.endswith(".py") else ""
            tracers[name] = line_tracer(ran.setdefault(path, set())) if path.startswith(prefix) else None
        return tracers[name]

    sys.argv = argv[1:]
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        executed = ran.get(str(path.resolve()), set())
        for first, span in sorted(statements(source).items()):
            total += 1
            if not executed.intersection(span):
                unrun.append(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(*unrun, sep="\n")
    print(f"{total - len(unrun)} of {total} statements in {PACKAGE.relative_to(ROOT)} ran")
    return status or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
