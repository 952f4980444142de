"""The solver path computes over int and Fraction only: no float can enter it."""

import ast
from pathlib import Path

import pytest

import nearstable

SOLVER_MODULES = ["scarf.py", "polytope.py", "shm.py", "cacq.py", "smf.py", "orders.py", "model.py"]


@pytest.mark.parametrize("module", SOLVER_MODULES)
def test_no_float_literal_or_float_call(module):
    path = Path(nearstable.__file__).parent / module
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            offenders.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            offenders.append(f"line {node.lineno}: call to float")
    assert offenders == []
