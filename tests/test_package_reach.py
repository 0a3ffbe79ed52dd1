"""The package holds only what a command runs.  Every top-level definition in
src/smoothap is reached from `cli.main` (a static walk), and every method and
property defined in a class body is called when the commands of
`test_cli.EVERY_COMMAND` run (a profiled run).  Second routes of a quantity
live in tests/oracles.py."""

import ast
import os
import sys
from pathlib import Path

import smoothap
from smoothap.characters import UnitGroup
from smoothap.cli import main
from test_cli import EVERY_COMMAND

PACKAGE = Path(smoothap.__file__).parent

# the top-level definitions that no command reaches: __version__ is read by
# no command, and reports.emit_report is the alias under which
# perfbench/tracer.py times report writing, kept until the benchmark reads
# a trace of the package's own; no method is exempt but the dunders
UNREACHED = {"__init__.__version__", "reports.emit_report"}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_reached_from_cli_main():
    # The walk over-approximates reach: an identifier (a Name, or the attr of
    # an Attribute) reaches every top-level definition of that name in any
    # module, whatever it is bound to at run time, and reaching a class
    # reaches everything its methods name.  So a definition left unreached
    # is one that no command can run.
    defs = {}
    for stem, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defs.update((f"{stem}.{name}", node) for name in names)
    by_name = {}
    for key in defs:
        by_name.setdefault(key.split(".", 1)[1], []).append(key)
    reached, todo = set(), ["cli.main"]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo += by_name.get(node.id, [])
            elif isinstance(node, ast.Attribute):
                todo += by_name.get(node.attr, [])
    assert set(defs) - reached == UNREACHED


def test_every_method_is_called_by_a_command(tmp_path, monkeypatch):
    # A walk by name cannot do this: cli reads w.value on an
    # ExceptionalWitness, which would make a method DirichletCharacter.value
    # look reached.  So the commands run in this process under a profiler
    # that records the qualified name of every function of the package that
    # is called.  Dunders (__init__, __repr__, ...) are exempt.
    methods = {f"{cls.name}.{fn.name}"
               for _, tree in _trees() for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))}
    package = str(PACKAGE) + os.sep
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code.co_qualname)

    # unit groups are kept per process: from an empty cache, every command
    # builds the groups it reads
    monkeypatch.setattr(UnitGroup, "_cache", {})
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = {name: main(["--out", str(tmp_path / name), *argv])
                 for name, argv in EVERY_COMMAND.items()}
    finally:
        sys.setprofile(previous)
    assert codes == dict.fromkeys(EVERY_COMMAND, 0)
    unreached = sorted(methods - called)
    assert not unreached, f"no command calls {unreached}"
