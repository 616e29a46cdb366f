"""Query algebra: the node types produced by the parser and consumed by the engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


class Var(str):
    """A SPARQL variable (stored without the leading ``?``)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Var(?{str(self)})"


# --------------------------------------------------------------------- terms
@dataclass(frozen=True)
class QuotedPattern:
    """An RDF-star quoted-triple pattern usable in subject position."""

    subject: Any
    predicate: Any
    object: Any


# ------------------------------------------------------------------ patterns
@dataclass
class TriplePattern:
    subject: Any
    predicate: Any
    object: Any


@dataclass
class FilterClause:
    expression: "Expression"


@dataclass
class OptionalPattern:
    group: "GroupPattern"


@dataclass
class UnionPattern:
    branches: List["GroupPattern"]


@dataclass
class NamedGraphPattern:
    graph: Any  # Var or URIRef
    group: "GroupPattern"


@dataclass
class BindClause:
    expression: "Expression"
    variable: Var


@dataclass
class GroupPattern:
    elements: List[Any] = field(default_factory=list)


# --------------------------------------------------------------- expressions
@dataclass
class Expression:
    """Base class for filter / projection expressions."""


@dataclass
class VarExpr(Expression):
    variable: Var


@dataclass
class ConstExpr(Expression):
    value: Any


@dataclass
class Comparison(Expression):
    operator: str  # one of = != < <= > >=
    left: Expression
    right: Expression


@dataclass
class BooleanExpr(Expression):
    operator: str  # && or ||
    left: Expression
    right: Expression


@dataclass
class NotExpr(Expression):
    operand: Expression


@dataclass
class FunctionCall(Expression):
    name: str  # lower-cased function name, e.g. regex, contains, bound, str
    arguments: List[Expression]


# ------------------------------------------------------------------- queries
@dataclass
class Aggregate:
    function: str  # count, sum, avg, min, max, sample
    argument: Optional[Var]  # None means COUNT(*)
    distinct: bool
    alias: Var


@dataclass
class SelectQuery:
    variables: List[Any]  # list of Var and Aggregate; empty means SELECT *
    distinct: bool
    where: GroupPattern
    group_by: List[Var] = field(default_factory=list)
    order_by: List[Tuple[Any, bool]] = field(default_factory=list)  # (Var|Aggregate alias, ascending)
    limit: Optional[int] = None
    offset: int = 0

    def is_select_star(self) -> bool:
        return not self.variables

    def has_aggregates(self) -> bool:
        return any(isinstance(item, Aggregate) for item in self.variables)


# ------------------------------------------------------------------ analysis
def expression_variables(expression: Expression) -> set:
    """The set of variable names an expression reads.

    Shared by the engine's FILTER planning (single-variable predicates are
    eligible for pushdown below joins) and its decode-only-what-is-referenced
    FILTER / BIND evaluation.
    """
    names: set = set()
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, VarExpr):
            names.add(str(node.variable))
        elif isinstance(node, (Comparison, BooleanExpr)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, NotExpr):
            stack.append(node.operand)
        elif isinstance(node, FunctionCall):
            stack.extend(node.arguments)
    return names
