"""FILTER / BIND expression evaluation over one binding.

A binding maps variable names to RDF terms (or Python values); expressions
evaluate to plain Python values.  Shared by the production executor and the
naive reference evaluator under ``tests/``.
"""

from __future__ import annotations

import re
from typing import Any, Dict

from repro.rdf.terms import Literal
from repro.sparql.algebra import (
    BooleanExpr,
    Comparison,
    ConstExpr,
    Expression,
    FunctionCall,
    NotExpr,
    VarExpr,
)

Binding = Dict[str, Any]


def to_python(value: Any) -> Any:
    """The Python value behind a term (literals unwrap, everything else passes)."""
    if isinstance(value, Literal):
        return value.to_python()
    return value


def truth(value: Any) -> bool:
    """The effective boolean value of an evaluated expression."""
    return bool(value)


def evaluate_expression(expression: Expression, binding: Binding) -> Any:
    if isinstance(expression, VarExpr):
        return to_python(binding.get(str(expression.variable)))
    if isinstance(expression, ConstExpr):
        return to_python(expression.value)
    if isinstance(expression, Comparison):
        left = evaluate_expression(expression.left, binding)
        right = evaluate_expression(expression.right, binding)
        return compare(expression.operator, left, right)
    if isinstance(expression, BooleanExpr):
        left = truth(evaluate_expression(expression.left, binding))
        if expression.operator == "&&":
            return left and truth(evaluate_expression(expression.right, binding))
        return left or truth(evaluate_expression(expression.right, binding))
    if isinstance(expression, NotExpr):
        return not truth(evaluate_expression(expression.operand, binding))
    if isinstance(expression, FunctionCall):
        return evaluate_function(expression, binding)
    raise TypeError(f"unexpected expression {expression!r}")


def evaluate_function(call: FunctionCall, binding: Binding) -> Any:
    name = call.name
    if name == "bound":
        argument = call.arguments[0]
        if isinstance(argument, VarExpr):
            return binding.get(str(argument.variable)) is not None
        return True
    arguments = [evaluate_expression(a, binding) for a in call.arguments]
    if name == "regex":
        flags = re.IGNORECASE if len(arguments) > 2 and "i" in str(arguments[2]) else 0
        return bool(re.search(str(arguments[1]), str(arguments[0] or ""), flags))
    if name == "contains":
        return str(arguments[1]).lower() in str(arguments[0] or "").lower()
    if name == "strstarts":
        return str(arguments[0] or "").startswith(str(arguments[1]))
    if name == "strends":
        return str(arguments[0] or "").endswith(str(arguments[1]))
    if name == "str":
        return str(arguments[0]) if arguments[0] is not None else ""
    if name == "lcase":
        return str(arguments[0] or "").lower()
    if name == "ucase":
        return str(arguments[0] or "").upper()
    if name == "strlen":
        return len(str(arguments[0] or ""))
    if name == "xsd" or name == "datatype":  # pragma: no cover - rarely used
        return arguments[0]
    raise ValueError(f"unsupported SPARQL function {name!r}")


def compare(operator: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, bool) or isinstance(right, bool):
        left_cmp, right_cmp = bool(left), bool(right)
    elif isinstance(left, (int, float)) and isinstance(right, (int, float)):
        left_cmp, right_cmp = float(left), float(right)
    else:
        left_cmp, right_cmp = str(left), str(right)
    if operator == "=":
        return left_cmp == right_cmp
    if operator == "!=":
        return left_cmp != right_cmp
    if operator == "<":
        return left_cmp < right_cmp
    if operator == "<=":
        return left_cmp <= right_cmp
    if operator == ">":
        return left_cmp > right_cmp
    if operator == ">=":
        return left_cmp >= right_cmp
    raise ValueError(f"unknown comparison operator {operator!r}")
