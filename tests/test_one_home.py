"""The stacked-vector count K = T - context_frames + 1 has one home,
dsp.FeatureConfig.vector_count: no other module computes with
context_frames. Naming it in a message or comparing it is no formula.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "asdkit"


def _arithmetic_on_context_frames(module: ast.Module) -> list[int]:
    """Lines on which context_frames, as a name or an attribute, is an
    operand of an arithmetic operator (binary, augmented or unary)."""
    lines = []
    for node in ast.walk(module):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.target, node.value)
        elif isinstance(node, ast.UnaryOp):
            operands = (node.operand,)
        else:
            continue
        lines += [node.lineno for operand in operands
                  if getattr(operand, "attr", getattr(operand, "id", None)) == "context_frames"]
    return sorted(lines)


def test_the_check_sees_a_vector_count_formula():
    code = "k = t - f.context_frames + 1\nn = context_frames * bands\nm = -p.context_frames\n"
    assert _arithmetic_on_context_frames(ast.parse(code)) == [1, 2, 3]
    message = "x = f'{f.context_frames} frames'\nok = t < f.context_frames\n"
    assert _arithmetic_on_context_frames(ast.parse(message)) == []


def test_only_dsp_computes_with_context_frames():
    found = {path.name: _arithmetic_on_context_frames(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "dsp.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
