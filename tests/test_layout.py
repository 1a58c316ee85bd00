"""Rules on the shape of the code base rather than on what it computes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "mlscore"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_library_function_has_a_caller_outside_tests():
    # a function or class that only the tests call is code the program
    # never runs; a re-export in __init__.py is not a caller
    defined = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    callers = [p for p in LIBRARY.glob("*.py") if p.name != "__init__.py"]
    callers += list((ROOT / "perfbench").glob("*.py")) + list((ROOT / "scripts").glob("*.py"))
    used = set()
    for path in callers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"defined in src/mlscore but used only by tests: {unused}"
