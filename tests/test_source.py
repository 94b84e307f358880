"""Checks on the source tree itself."""

import ast
import re
from pathlib import Path

import pytest

from graspsynth.hands import builtin_hand

from oracles import link_stack

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so a check that matters must raise
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_a_private_field_reader():
    # the rules for a document's fields live behind graspsynth.documents'
    # public readers, and no module reaches into a loader's helpers
    guarded = {"graspsynth.documents", "graspsynth.hands.schema",
               "graspsynth.contact"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).with_suffix("").parts[:-1]
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join([*base, *filter(None, [node.module])])
            found += [f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
                      for alias in node.names if module in guarded
                      and alias.name.startswith("_")]
    assert found == []


def _exported(tree):
    """The names a module lists in ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}


def test_no_unused_module_import_in_src():
    # a module-level import is read in its module or re-exported through
    # __all__; one that is neither is dead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)} | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                      for name in bound if name not in read]
    assert found == []


def _calls_by_name():
    """Every call in src/, tests/, benchmark/ and the README's python
    blocks, by the called name (a bare name or an attribute)."""
    root = SRC.parent
    sources = [path.read_text() for folder in ("src", "tests", "benchmark")
               for path in sorted((root / folder).rglob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```",
                          (root / "README.md").read_text(), re.S)
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, index, name):
    """Whether a call passes parameter ``name`` by keyword or at
    positional ``index`` (counted without ``self``; None when keyword
    only). ``*args`` and ``**kwargs`` pass everything."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords)
            or (index is not None and len(call.args) > index))


def test_every_keyword_option_has_a_caller():
    # a defaulted parameter that no call sets is a constant in disguise:
    # a configuration no test or benchmark runs
    calls = _calls_by_name()
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner in ast.walk(tree):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name, skip = fn.name, 0
                if isinstance(owner, ast.ClassDef):
                    skip = not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list)
                    if name == "__init__":
                        name = owner.name
                args = fn.args.posonlyargs + fn.args.args
                options = [(i - skip, arg.arg) for i, arg in enumerate(args)
                           if i >= len(args) - len(fn.args.defaults)]
                options += [(None, arg.arg) for arg, default
                            in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                            if default is not None]
                found += [f"{path.relative_to(SRC)}:{fn.lineno} "
                          f"{name}({option})" for index, option in options
                          if not any(_passes(call, index, option)
                                     for call in calls.get(name, []))]
    assert found == []


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_primitive_chunk_fits_the_budget(hand):
    # a kernel pass's (points, P, 3) float64 temporaries stay under glibc's
    # 128 KiB mmap threshold, so they come from reused heap memory rather
    # than freshly mapped pages; and no pass is a one-point product
    spec = builtin_hand(hand)
    for link in [None] + spec.segment_links():
        stack = (spec.primitive_stack() if link is None
                 else link_stack(spec, link))
        assert stack.chunk >= 2
        assert stack.chunk * len(stack.owner) * 3 * 8 <= 128 * 1024
