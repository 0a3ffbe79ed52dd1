"""The package holds only what a command runs: every top-level definition in
src/smoothap is reached from `cli.main`.  Second routes of a quantity live
in tests/oracles.py."""

import ast
from pathlib import Path

import smoothap

# __version__ is read by no command; reports.emit_report is the name under
# which perfbench/tracer.py times report writing
UNREACHED = {"__init__.__version__", "reports.emit_report"}


def test_every_definition_is_reached_from_cli_main():
    # The walk over-approximates reach: an identifier (a Name, or the attr of
    # an Attribute) reaches every top-level definition of that name in any
    # module, whatever it is bound to at run time, and reaching a class
    # reaches everything its methods name.  So a definition left unreached
    # is one that no command can run.
    defs = {}
    for path in sorted(Path(smoothap.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defs.update((f"{path.stem}.{name}", node) for name in names)
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
