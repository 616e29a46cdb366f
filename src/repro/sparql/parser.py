"""Tokenizer and recursive-descent parser for the supported SPARQL subset.

Supported grammar (enough for every query the KGLiDS interfaces issue):

* ``PREFIX`` declarations, on top of the built-in LiDS prefixes.
* ``SELECT [DISTINCT] (?var | (AGG(?var) AS ?alias))+ | *``
* ``WHERE { ... }`` with triple patterns (``;`` and ``,`` abbreviations),
  ``FILTER``, ``OPTIONAL``, ``UNION``, ``GRAPH``, ``BIND (expr AS ?v)``,
  and RDF-star quoted-triple patterns ``<< ?s :p ?o >>`` in subject position
  only (not nested, not as an object).
* ``GROUP BY``, ``ORDER BY [ASC|DESC](?var)``, and at most one each of
  ``LIMIT n`` / ``OFFSET n`` with ``n`` an unsigned integer.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.rdf.namespace import DEFAULT_PREFIXES, Namespace
from repro.rdf.terms import Literal, URIRef
from repro.sparql.algebra import (
    Aggregate,
    BindClause,
    BooleanExpr,
    Comparison,
    ConstExpr,
    Expression,
    FilterClause,
    FunctionCall,
    GroupPattern,
    NamedGraphPattern,
    NotExpr,
    OptionalPattern,
    QuotedPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    Var,
    VarExpr,
)


class SPARQLSyntaxError(ValueError):
    """Raised when a query cannot be parsed.

    ``line`` and ``column`` (1-based, also in the message) locate the
    offending token, or the end of the text when the query stops early;
    both are ``None`` for an error found in an algebra built in code.
    """

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        if line is not None:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)
        self.line = line
        self.column = column


def _syntax_error(message: str, text: str, offset: int) -> SPARQLSyntaxError:
    """A :class:`SPARQLSyntaxError` located at ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SPARQLSyntaxError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<quoted_open><<)
    | (?P<quoted_close>>>)
    | (?P<iri><[^<>\s]*>)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<number>[+-]?\d+(\.\d+)?([eE][+-]?\d+)?)
    | (?P<op>&&|\|\||!=|<=|>=|[=<>!])
    | (?P<punct>[{}().;,*:])
    | (?P<pname>[A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z_][A-Za-z0-9_\-.]*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "distinct",
    "where",
    "prefix",
    "filter",
    "optional",
    "union",
    "graph",
    "bind",
    "as",
    "group",
    "order",
    "by",
    "asc",
    "desc",
    "limit",
    "offset",
    "a",
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "sample",
    "true",
    "false",
}


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(query: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(query):
        match = _TOKEN_RE.match(query, position)
        if not match:
            raise _syntax_error(f"cannot tokenize {query[position:position + 20]!r}", query, position)
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(0), position))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, query: str, prefixes: Dict[str, Namespace]):
        self._text = query
        self._tokens = _tokenize(query)
        self._position = 0
        self._prefixes = dict(prefixes)

    def _error(self, message: str, token: Optional[_Token]) -> SPARQLSyntaxError:
        """A syntax error at ``token``, or at the end of the text for ``None``."""
        return _syntax_error(message, self._text, len(self._text) if token is None else token.offset)

    # ----------------------------------------------------------- token utils
    def _peek(self, offset: int = 0) -> Optional[_Token]:
        index = self._position + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of query", None)
        self._position += 1
        return token

    def _expect_word(self, word: str) -> None:
        token = self._next()
        if token.kind != "word" or token.text.lower() != word:
            raise self._error(f"expected {word!r}, found {token.text!r}", token)

    def _expect_punct(self, punct: str) -> None:
        token = self._next()
        if token.text != punct:
            raise self._error(f"expected {punct!r}, found {token.text!r}", token)

    def _at_word(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "word" and token.text.lower() == word

    def _at_punct(self, punct: str) -> bool:
        token = self._peek()
        return token is not None and token.text == punct

    # ---------------------------------------------------------------- parsing
    def parse(self) -> SelectQuery:
        self._parse_prologue()
        query = self._parse_select()
        token = self._peek()
        if token is not None:
            raise self._error(f"trailing tokens after query: {token.text!r}", token)
        return query

    def _parse_prologue(self) -> None:
        while self._at_word("prefix"):
            self._next()
            name_token = self._next()
            if name_token.kind == "pname":
                prefix = name_token.text[:-1] if name_token.text.endswith(":") else name_token.text.split(":", 1)[0]
            elif name_token.kind == "word":
                prefix = name_token.text
                if self._at_punct(":"):
                    self._next()
            else:
                raise self._error(f"malformed PREFIX declaration near {name_token.text!r}", name_token)
            iri_token = self._next()
            if iri_token.kind != "iri":
                raise self._error("PREFIX declaration requires an IRI", iri_token)
            self._prefixes[prefix] = Namespace(iri_token.text[1:-1])

    def _parse_select(self) -> SelectQuery:
        self._expect_word("select")
        distinct = False
        if self._at_word("distinct"):
            self._next()
            distinct = True
        variables: List[Any] = []
        if self._at_punct("*"):
            self._next()
        else:
            while True:
                token = self._peek()
                if token is None:
                    raise self._error("unexpected end of SELECT clause", None)
                if token.kind == "var":
                    variables.append(Var(self._next().text[1:]))
                elif token.text == "(":
                    variables.append(self._parse_aggregate())
                else:
                    break
        if self._at_word("where"):
            self._next()
        where = self._parse_group()
        group_by: List[Var] = []
        order_by: List[Tuple[Any, bool]] = []
        window: Dict[str, int] = {}
        while self._peek() is not None:
            if self._at_word("group"):
                self._next()
                self._expect_word("by")
                while self._peek() is not None and self._peek().kind == "var":
                    group_by.append(Var(self._next().text[1:]))
            elif self._at_word("order"):
                self._next()
                self._expect_word("by")
                order_by.extend(self._parse_order_conditions())
            elif self._at_word("limit") or self._at_word("offset"):
                clause_token = self._next()
                clause = clause_token.text.upper()
                count = self._next()
                if clause in window:
                    raise self._error(f"duplicate {clause} clause", clause_token)
                if count.kind != "number" or not count.text.isdecimal():
                    raise self._error(f"{clause} takes an unsigned integer, found {count.text!r}", count)
                window[clause] = int(count.text)
            else:
                break
        return SelectQuery(
            variables=variables,
            distinct=distinct,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=window.get("LIMIT"),
            offset=window.get("OFFSET", 0),
        )

    def _parse_order_conditions(self) -> List[Tuple[Any, bool]]:
        conditions: List[Tuple[Any, bool]] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "var":
                conditions.append((Var(self._next().text[1:]), True))
            elif token.kind == "word" and token.text.lower() in ("asc", "desc"):
                ascending = self._next().text.lower() == "asc"
                self._expect_punct("(")
                variable_token = self._next()
                if variable_token.kind != "var":
                    raise self._error("ORDER BY ASC/DESC expects a variable", variable_token)
                self._expect_punct(")")
                conditions.append((Var(variable_token.text[1:]), ascending))
            else:
                break
        if not conditions:
            raise self._error("empty ORDER BY clause", self._peek())
        return conditions

    def _parse_aggregate(self) -> Aggregate:
        self._expect_punct("(")
        function_token = self._next()
        if function_token.kind != "word" or function_token.text.lower() not in (
            "count",
            "sum",
            "avg",
            "min",
            "max",
            "sample",
        ):
            raise self._error(f"unknown aggregate {function_token.text!r}", function_token)
        function = function_token.text.lower()
        self._expect_punct("(")
        distinct = False
        if self._at_word("distinct"):
            self._next()
            distinct = True
        argument: Optional[Var] = None
        if self._at_punct("*"):
            self._next()
        else:
            variable_token = self._next()
            if variable_token.kind != "var":
                raise self._error("aggregate argument must be a variable or *", variable_token)
            argument = Var(variable_token.text[1:])
        self._expect_punct(")")
        self._expect_word("as")
        alias_token = self._next()
        if alias_token.kind != "var":
            raise self._error("aggregate alias must be a variable", alias_token)
        self._expect_punct(")")
        return Aggregate(
            function=function, argument=argument, distinct=distinct, alias=Var(alias_token.text[1:])
        )

    # ------------------------------------------------------------- patterns
    def _parse_group(self) -> GroupPattern:
        self._expect_punct("{")
        group = GroupPattern()
        while not self._at_punct("}"):
            token = self._peek()
            if token is None:
                raise self._error("unterminated group pattern", None)
            if self._at_word("filter"):
                self._next()
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_punct(")")
                group.elements.append(FilterClause(expression))
            elif self._at_word("optional"):
                self._next()
                group.elements.append(OptionalPattern(self._parse_group()))
            elif self._at_word("bind"):
                self._next()
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_word("as")
                variable_token = self._next()
                if variable_token.kind != "var":
                    raise self._error("BIND requires a variable alias", variable_token)
                self._expect_punct(")")
                group.elements.append(BindClause(expression, Var(variable_token.text[1:])))
            elif self._at_word("graph"):
                self._next()
                graph_term = self._parse_term()
                group.elements.append(NamedGraphPattern(graph_term, self._parse_group()))
            elif self._at_punct("{"):
                branches = [self._parse_group()]
                while self._at_word("union"):
                    self._next()
                    branches.append(self._parse_group())
                group.elements.append(UnionPattern(branches))
            else:
                group.elements.extend(self._parse_triples_block())
            if self._at_punct("."):
                self._next()
        self._expect_punct("}")
        return group

    def _parse_triples_block(self) -> List[TriplePattern]:
        subject = self._parse_term(allow_quoted=True)
        patterns: List[TriplePattern] = []
        while True:
            predicate = self._parse_term(as_predicate=True)
            obj = self._parse_term()
            patterns.append(TriplePattern(subject, predicate, obj))
            while self._at_punct(","):
                self._next()
                obj = self._parse_term()
                patterns.append(TriplePattern(subject, predicate, obj))
            if self._at_punct(";"):
                self._next()
                if self._at_punct(".") or self._at_punct("}"):
                    break
                continue
            break
        return patterns

    def _parse_term(self, as_predicate: bool = False, allow_quoted: bool = False) -> Any:
        token = self._next()
        if token.kind == "quoted_open":
            if not allow_quoted:
                raise self._error("quoted triple not allowed here", token)
            subject = self._parse_term()
            predicate = self._parse_term(as_predicate=True)
            obj = self._parse_term()
            closing = self._next()
            if closing.kind != "quoted_close":
                raise self._error("unterminated quoted triple pattern", closing)
            return QuotedPattern(subject, predicate, obj)
        if token.kind == "var":
            return Var(token.text[1:])
        if token.kind == "iri":
            return URIRef(token.text[1:-1])
        if token.kind == "pname":
            return self._prefixed_name(token)
        if token.kind == "string":
            return Literal(Literal.unescape(token.text[1:-1]))
        if token.kind == "number":
            return Literal(float(token.text)) if "." in token.text or "e" in token.text.lower() else Literal(int(token.text))
        if token.kind == "word":
            lowered = token.text.lower()
            if as_predicate and lowered == "a":
                from repro.rdf.namespace import RDF

                return RDF.type
            if lowered == "true":
                return Literal(True)
            if lowered == "false":
                return Literal(False)
        raise self._error(f"unexpected token {token.text!r} in pattern", token)

    def _prefixed_name(self, token: _Token) -> URIRef:
        prefix, local = token.text.split(":", 1)
        if prefix not in self._prefixes:
            raise self._error(f"unknown prefix {prefix!r}", token)
        return self._prefixes[prefix].term(local)

    # ---------------------------------------------------------- expressions
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._peek() is not None and self._peek().text == "||":
            self._next()
            right = self._parse_and()
            left = BooleanExpr("||", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_comparison()
        while self._peek() is not None and self._peek().text == "&&":
            self._next()
            right = self._parse_comparison()
            left = BooleanExpr("&&", left, right)
        return left

    def _parse_comparison(self) -> Expression:
        left = self._parse_primary_expression()
        token = self._peek()
        if token is not None and token.text in ("=", "!=", "<", "<=", ">", ">="):
            operator = self._next().text
            right = self._parse_primary_expression()
            return Comparison(operator, left, right)
        return left

    def _parse_primary_expression(self) -> Expression:
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of expression", None)
        if token.text == "!":
            self._next()
            return NotExpr(self._parse_primary_expression())
        if token.text == "(":
            self._next()
            inner = self._parse_expression()
            self._expect_punct(")")
            return inner
        if token.kind == "var":
            self._next()
            return VarExpr(Var(token.text[1:]))
        if token.kind == "string":
            self._next()
            return ConstExpr(Literal.unescape(token.text[1:-1]))
        if token.kind == "number":
            self._next()
            return ConstExpr(float(token.text) if "." in token.text or "e" in token.text.lower() else int(token.text))
        if token.kind == "iri":
            self._next()
            return ConstExpr(URIRef(token.text[1:-1]))
        if token.kind == "pname":
            self._next()
            return ConstExpr(self._prefixed_name(token))
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered in ("true", "false"):
                self._next()
                return ConstExpr(lowered == "true")
            # function call
            self._next()
            self._expect_punct("(")
            arguments: List[Expression] = []
            if not self._at_punct(")"):
                arguments.append(self._parse_expression())
                while self._at_punct(","):
                    self._next()
                    arguments.append(self._parse_expression())
            self._expect_punct(")")
            return FunctionCall(lowered, arguments)
        raise self._error(f"unexpected token {token.text!r} in expression", token)


def parse_query(query: str, prefixes: Optional[Dict[str, Namespace]] = None) -> SelectQuery:
    """Parse a SPARQL SELECT query into its algebra representation."""
    return _Parser(query, prefixes or DEFAULT_PREFIXES).parse()
