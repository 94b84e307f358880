"""The README's library example must call the API as it is."""

import ast
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_calls_bind_to_the_signatures():
    # every call of an imported name binds to that name's signature:
    # each keyword exists and the positional count fits
    blocks = _python_blocks()
    assert blocks
    checked = set()
    for block in blocks:
        tree = ast.parse(block)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(module,
                                                                   alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                signature = inspect.signature(imported[node.func.id])
                try:
                    signature.bind(*node.args,
                                   **{kw.arg: kw.value for kw in node.keywords})
                except TypeError as exc:
                    raise AssertionError(
                        f"README line {node.lineno}: {ast.unparse(node)}: "
                        f"{exc}") from None
                checked.add(node.func.id)
    assert {"refine_physical", "evaluate_grasp", "optimize"} <= checked
