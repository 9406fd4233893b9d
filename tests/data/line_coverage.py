"""The statements of zolocirc that Tier-1 never runs.

    python tests/data/line_coverage.py [SRC]

Runs Tier-1 (``tests/`` and ``perfbench/test_perfbench.py``) in-process,
with ``zolocirc`` imported from SRC (default: the ``src`` of this
checkout), under a ``sys.settrace`` hook that traces only the files of
SRC/zolocirc.  Then it prints, module by module, the statement lines that
never ran, as ``module.py: line line ...``, and a last line with the
pytest exit code and the number of lines listed; pytest's own report goes
to stderr.  Statements come from
the AST, with docstrings left out.  Code that runs only in a subprocess
(the selftest command, ``python -m zolocirc.cli``) is listed too: the
hook does not follow a test into a child process.  Tier-1 takes about
2.5 times as long under the hook.  It needs only the standard library
and pytest, and pytest does not collect this file.
"""

import ast
import contextlib
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def statement_lines(path: str) -> set:
    """First lines of the statements of the file at ``path``, docstrings left out."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.add(body[0])
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt) and node not in docstrings}


def uncovered(src: str) -> tuple:
    """(pytest exit code, {module file name: sorted lines that never ran})."""
    package = os.path.join(os.path.abspath(src), "zolocirc")
    sys.path.insert(0, os.path.abspath(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))
    import pytest  # before the hook: pytest's own import is not traced

    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    os.chdir(ROOT)
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the list
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                "tests", "perfbench/test_perfbench.py"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            lines = sorted(line for line in statement_lines(path) if (path, line) not in ran)
            if lines:
                missing[name] = lines
    return int(code), missing


if __name__ == "__main__":
    code, missing = uncovered(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"))
    for name, lines in missing.items():
        print(f"{name}: {' '.join(map(str, lines))}")
    print(f"pytest exit {code}; {sum(map(len, missing.values()))} statement lines never ran")
