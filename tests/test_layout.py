"""Rules on the shape of the code base rather than on what it computes."""

import ast
import re
from pathlib import Path

from mlscore import margins

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "mlscore"
# the code the program runs: the library, the benchmark and the experiment
# scripts
CALLERS = list(LIBRARY.glob("*.py"))
CALLERS += list((ROOT / "perfbench").glob("*.py")) + list((ROOT / "scripts").glob("*.py"))
# read by perfbench/workloads.py, so it goes with the benchmark change of
# ROADMAP item 1(b)
UNSET_KNOBS_ALLOWED = {"MarginConfig.temperature_override"}
# perfbench/workloads.py unpacks the pair standardize returns and reads no
# field of its stats, so they go with the same benchmark change, ROADMAP 1(b)
UNREAD_FIELDS_ALLOWED = {"ScalerStats.means", "ScalerStats.std_devs", "ScalerStats.constant"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_library_function_has_a_caller_outside_tests():
    # a function or class that only the tests call is code the program
    # never runs
    defined = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    used = set()
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"defined in src/mlscore but used only by tests: {unused}"


def test_package_root_binds_only_its_version():
    # every name is imported from the module that defines it, so a bare
    # ``import mlscore`` loads no module, numpy included
    bound = set()
    for node in ast.walk(_parse(LIBRARY / "__init__.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    assert bound == {"__version__"}


def _defaulted(tree):
    """(owner, name, position) of every parameter and dataclass field with a
    default: the owner is the function or the class, the position the one
    a call passes it at (after self or cls for a method), None if it is
    keyword-only."""
    skip = {}  # methods, by node, and the leading arguments a call omits
    for node in ast.walk(tree):  # breadth first: a class before its methods
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                    for pos, field in enumerate(fields):
                        if field.value is not None:
                            yield node.name, field.target.id, pos
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in method.decorator_list)
                    skip[method] = 0 if static else 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], start=first):
                yield node.name, arg.arg, pos - skip.get(node, 0)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def test_every_library_knob_is_set_outside_tests():
    # a parameter or dataclass field with a default that no call outside
    # the tests passes, by keyword or by position to its owner, is a
    # setting only the tests change; the program always runs its default
    keywords, most_positional = set(), {}
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                keywords.update(k.arg for k in node.keywords if k.arg)
                owner = getattr(node.func, "id", getattr(node.func, "attr", None))
                count = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    count = float("inf")
                most_positional[owner] = max(most_positional.get(owner, 0), count)
    unset = []
    for path in sorted(LIBRARY.glob("*.py")):
        for owner, name, pos in _defaulted(_parse(path)):
            passed = name in keywords or (
                pos is not None and most_positional.get(owner, 0) > pos
            )
            if not passed and f"{owner}.{name}" not in UNSET_KNOBS_ALLOWED:
                unset.append(f"{path.name}:{owner}.{name}")
    assert not unset, f"defaults in src/mlscore that only tests set: {unset}"


def _record_fields(tree):
    """(class, field) of every field of a dataclass or NamedTuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            names = {getattr(m, "id", getattr(m, "attr", None)) for m in marks + node.bases}
            if names & {"dataclass", "NamedTuple"}:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        yield node.name, stmt.target.id


def test_every_library_field_is_read_outside_tests():
    # a field that no code outside the tests reads as an attribute is
    # built on every record for the tests alone
    read = set()
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{path.name}:{owner}.{name}"
        for path in sorted(LIBRARY.glob("*.py"))
        for owner, name in _record_fields(_parse(path))
        if name not in read and f"{owner}.{name}" not in UNREAD_FIELDS_ALLOWED
    ]
    assert not unread, f"fields in src/mlscore that only tests read: {unread}"


# the kernel block as prose gives it: "128-row blocks", "blocks of 128
# (full) rows", "O(128 n + n d)"
BLOCK_FIGURE = re.compile(
    r"(\d+)-row (?:kernel )?blocks?|blocks of (\d+) (?:full )?rows|O\((\d+) n \+ n d\)"
)


def test_block_figures_in_prose_match_the_kernel_block():
    # a block size written out in prose goes stale when _KERNEL_BLOCK
    # changes, and with it every memory figure derived from it
    figures, stale = 0, []
    for path in [ROOT / "README.md", *sorted(LIBRARY.glob("*.py"))]:
        text = " ".join(path.read_text(encoding="utf-8").split())
        for match in BLOCK_FIGURE.finditer(text):
            figures += 1
            if int(next(g for g in match.groups() if g)) != margins._KERNEL_BLOCK:
                stale.append(f"{path.name}: {match.group()!r}")
    assert figures >= 5, "the block figures are no longer written as the pattern reads them"
    assert not stale, f"figures that are not margins._KERNEL_BLOCK: {stale}"
