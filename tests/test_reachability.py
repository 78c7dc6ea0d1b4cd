"""Every function in ``src/quiverseq`` is reached from the command line,
or is on a short list that says why it stays.

A fixed set of CLI commands, one of each subcommand and format plus the
error paths, runs under ``sys.setprofile``.  The functions that none of
them calls must be exactly ``KEPT``.  A function that the CLI stops
reaching fails the test until it is deleted or listed with its reason; a
listed function that the CLI starts to reach fails it too.

No module of the package or of the tests imports a name it never reads.
"""

import ast
import contextlib
import io
import json
import sys
import types
from inspect import CO_NEWLOCALS
from pathlib import Path

import quiverseq
from quiverseq import cli

KEPT = {
    # bench/tracing.py wraps both by name, and a missing name fails
    # tests/test_bench_hooks.py.
    "laurent.normalize",
    "periodicity.weight_exists",
    # The cross-engine oracle: symbolic values evaluated at numeric points.
    "laurent.evaluate",
    "poly.Poly.evaluate",
    # The paper's Fordy-Marsh construction of period-1 quivers; README API.
    "periodicity.primitive",
    "periodicity.combine",
    # Safety code for a body that exact_div cannot divide; no run reaches it.
    "laurent.NotLaurentError.__init__",
    "poly.Poly.__repr__",
}

TESTS = Path(__file__).resolve().parent

SOMOS4 = [[0, 1, -2, 1], [-1, 0, 3, -2], [2, -3, 0, 1], [-1, 2, -1, 0]]
P31 = [[0, -1, -1], [1, 0, -1], [1, 1, 0]]


def _commands(tmp_path):
    """(argv, exit status) of each command in the set."""

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    s4 = write("s4.json", json.dumps({"b": SOMOS4}))
    s4w = write("s4w.json", json.dumps({"b": SOMOS4, "w": [1, 0, 0, -1]}))
    p31 = write("p31.json", json.dumps({"b": P31}))
    broken = write("broken.json", "[1")
    # -c·P(3,1) with c of 4300 digits: the closing residual 2 - 2c cannot be printed
    huge = write("huge.json", json.dumps({"b": [[-int("9" * 4300) * e for e in row] for row in P31]}))
    return [
        (["catalog"], 0),
        (["catalog", "--format", "json"], 0),
        (["mutate", "--quiver", s4w, "--at", "1"], 0),
        (["mutate", "--quiver", s4, "--at", "2", "--format", "text"], 0),
        (["mutate", "--quiver", broken, "--at", "1"], 1),
        (["weight", "--quiver", s4], 0),
        (["weight", "--quiver", p31, "--format", "json"], 0),
        (["weight", "--quiver", huge, "--format", "json"], 1),
        (["period", "--quiver", s4], 0),
        (["period", "--quiver", p31, "--weights", "1,0,-1", "--max", "3", "--format", "json"], 0),
        (["laurent", "--quiver", s4, "--steps", "3", "--emit", "sexpr", "--format", "json"], 0),
        (["laurent", "--quiver", p31, "--weights", "1,0,-1", "--hold-weights", "--steps", "5", "--check", "--emit", "sexpr"], 1),
        (["laurent", "--quiver", s4w, "--steps", "8", "--budget", "50"], 1),
        (["laurent", "--quiver", s4w, "--steps", "11", "--format", "json"], 0),
        (["seq", "--family", "somos4", "--terms", "12", "--deform", "m2:1"], 0),
        (["seq", "--family", "gale-robinson", "--N", "6", "--r", "2", "--s", "3", "--terms", "14", "--deform", "m1:1", "--format", "csv"], 0),
        (["seq", "--family", "somos4", "--init-a=1,1,1,0", "--terms", "8", "--deform", "none", "--format", "text"], 0),
        (["seq", "--quiver", s4w, "--terms", "8"], 0),
        (["seq", "--family", "nope"], 1),
        (["decompose", "--family", "somos4", "--terms", "8"], 0),
        (["decompose", "--family", "somos4", "--terms", "8", "--format", "csv"], 0),
        (["decompose", "--quiver", s4, "--deform", "none", "--terms", "8", "--format", "text"], 0),
        (["scan", "--family", "fordy-marsh-s4", "--p", "0..1", "--q", "0..1", "--horizon", "12", "--deform", "m1:1"], 0),
        (["scan", "--family", "fordy-marsh-s4", "--p", "0..1", "--q", "0,1", "--horizon", "12", "--format", "csv"], 0),
        (["scan", "--family", "fordy-marsh-s4", "--p", "0..1", "--q", "1", "--horizon", "12", "--format", "text"], 0),
        (["scan", "--family", "somos4", "--p", "1"], 1),
    ]


def _src_functions() -> dict[tuple[str, int, str], str]:
    """Every function and method defined in the package's modules, by
    (file, first line, name), mapped to ``module.qualname``."""
    found = {}
    for path in sorted(Path(quiverseq.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # class bodies have no fresh locals; <lambda>, <genexpr> and
                    # comprehensions are parts of the function that holds them
                    if const.co_flags & CO_NEWLOCALS and not const.co_name.startswith("<"):
                        key = (const.co_filename, const.co_firstlineno, const.co_name)
                        found[key] = f"{path.stem}.{const.co_qualname}"
    return found


def test_functions_the_cli_never_calls_are_the_kept_ones(tmp_path):
    commands = _commands(tmp_path)
    cli._parser.cache_clear()  # so that this run builds the parser itself
    called, statuses = set(), []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        for argv, _ in commands:
            with contextlib.redirect_stderr(io.StringIO()):
                statuses.append(cli.main(argv, out=io.StringIO()))
    finally:
        sys.setprofile(None)
    assert statuses == [status for _, status in commands]
    functions = _src_functions()
    assert {name for key, name in functions.items() if key not in called} == KEPT


def _unread_imports(source: str) -> set[str]:
    """Names bound by the module's imports that no expression reads.

    ``import a.b`` binds ``a``; names listed in ``__all__`` count as read,
    and ``__future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport re\nfrom x import a, b as c\n"
    assert _unread_imports(source + "__all__ = ['a']\nre.compile\n") == {"os", "c"}


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(Path(quiverseq.__file__).parent.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unread = {path.name: _unread_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: names for name, names in unread.items() if names} == {}
