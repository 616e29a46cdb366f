"""Lightweight static code analysis of Python pipeline scripts.

Each significant statement of a script becomes a :class:`Statement` carrying
the four aspects the paper stores: code flow (execution order), data flow
(next statements touching the same variables), control-flow type (loop /
conditional / import / user function / module level) and the raw statement
text.  Library calls are resolved through the script's import aliases so that
``pd.read_csv`` becomes ``pandas.read_csv``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

#: Calls with no semantic significance for pipeline abstraction (paper §3.1).
INSIGNIFICANT_CALLS = {
    "print",
    "display",
    "head",
    "tail",
    "info",
    "describe",
    "summary",
    "len",
}

#: Control-flow types recorded per statement.
CONTROL_FLOW_MODULE = "module"
CONTROL_FLOW_LOOP = "loop"
CONTROL_FLOW_CONDITIONAL = "conditional"
CONTROL_FLOW_IMPORT = "import"
CONTROL_FLOW_FUNCTION = "user_function"


@dataclass
class CallInfo:
    """One resolved library call inside a statement."""

    full_name: str  # e.g. "pandas.read_csv" or "sklearn.linear_model.LogisticRegression"
    library: str  # root library, e.g. "pandas"
    positional_arguments: List[Any] = field(default_factory=list)
    keyword_arguments: Dict[str, Any] = field(default_factory=dict)
    #: Filled by documentation analysis: names of implicit positional parameters.
    parameter_names: Dict[str, Any] = field(default_factory=dict)
    #: Filled by documentation analysis: defaulted parameters not set by the caller.
    default_parameters: Dict[str, Any] = field(default_factory=dict)
    return_type: Optional[str] = None

    def all_parameters(self) -> Dict[str, Any]:
        """Explicit (named via docs), keyword and default parameters combined."""
        combined: Dict[str, Any] = {}
        combined.update(self.default_parameters)
        combined.update(self.parameter_names)
        combined.update(self.keyword_arguments)
        return combined


@dataclass
class Statement:
    """One abstracted code statement."""

    index: int
    text: str
    control_flow: str = CONTROL_FLOW_MODULE
    calls: List[CallInfo] = field(default_factory=list)
    defined_variables: Set[str] = field(default_factory=set)
    used_variables: Set[str] = field(default_factory=set)
    next_statement: Optional[int] = None  # code flow
    data_flow_next: List[int] = field(default_factory=list)  # data flow
    dataset_reads: List[str] = field(default_factory=list)
    column_reads: List[str] = field(default_factory=list)


def _literal(node: ast.AST) -> Any:
    """Best-effort literal extraction for call arguments."""
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return ast.unparse(node) if hasattr(ast, "unparse") else None


class StaticCodeAnalyzer:
    """Parses a pipeline script into a list of abstracted statements."""

    def analyze(self, source: str) -> List[Statement]:
        """Analyze Python source code; syntax errors yield an empty abstraction."""
        statements, _ = self.analyze_with_aliases(source)
        return statements

    def analyze_with_aliases(self, source: str) -> Tuple[List[Statement], Dict[str, str]]:
        """Analyze source code and also return the import alias map.

        The alias map records what each imported name resolves to
        (``pd -> pandas``, ``StandardScaler -> sklearn.preprocessing.StandardScaler``)
        and is used by the abstractor to distinguish real library roots from
        method calls on local variables.
        """
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return [], {}
        aliases: Dict[str, str] = {}
        statements: List[Statement] = []
        self._walk_body(tree.body, CONTROL_FLOW_MODULE, aliases, statements)
        self._link_code_flow(statements)
        self._link_data_flow(statements)
        return statements, aliases

    # ----------------------------------------------------------------- walk
    def _walk_body(
        self,
        body: List[ast.stmt],
        control_flow: str,
        aliases: Dict[str, str],
        statements: List[Statement],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._register_imports(node, aliases)
                statements.append(
                    self._make_statement(node, CONTROL_FLOW_IMPORT, aliases, len(statements))
                )
            elif isinstance(node, (ast.For, ast.While)):
                self._walk_body(node.body, CONTROL_FLOW_LOOP, aliases, statements)
                self._walk_body(node.orelse, CONTROL_FLOW_LOOP, aliases, statements)
            elif isinstance(node, ast.If):
                self._walk_body(node.body, CONTROL_FLOW_CONDITIONAL, aliases, statements)
                self._walk_body(node.orelse, CONTROL_FLOW_CONDITIONAL, aliases, statements)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_body(node.body, CONTROL_FLOW_FUNCTION, aliases, statements)
            elif isinstance(node, (ast.With,)):
                self._walk_body(node.body, control_flow, aliases, statements)
            elif isinstance(node, (ast.Try,)):
                self._walk_body(node.body, control_flow, aliases, statements)
                for handler in node.handlers:
                    self._walk_body(handler.body, control_flow, aliases, statements)
            elif isinstance(node, (ast.ClassDef,)):
                self._walk_body(node.body, CONTROL_FLOW_FUNCTION, aliases, statements)
            else:
                statement = self._make_statement(node, control_flow, aliases, len(statements))
                if statement.calls or statement.defined_variables or statement.used_variables:
                    statements.append(statement)

    @staticmethod
    def _register_imports(node: ast.stmt, aliases: Dict[str, str]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    # ------------------------------------------------------------ statements
    def _make_statement(
        self, node: ast.stmt, control_flow: str, aliases: Dict[str, str], index: int
    ) -> Statement:
        text = ast.unparse(node) if hasattr(ast, "unparse") else ""
        statement = Statement(index=index, text=text, control_flow=control_flow)
        statement.defined_variables = self._defined_variables(node)
        statement.used_variables = self._used_variables(node) - statement.defined_variables
        statement.calls = self._extract_calls(node, aliases)
        return statement

    @staticmethod
    def _defined_variables(node: ast.stmt) -> Set[str]:
        defined: Set[str] = set()
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.target is not None:
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    defined.add(sub.id)
                elif isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name):
                    defined.add(sub.value.id)
        return defined

    @staticmethod
    def _used_variables(node: ast.stmt) -> Set[str]:
        used: Set[str] = set()
        value_node: Optional[ast.AST] = None
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Expr)):
            value_node = node.value
        if value_node is None:
            value_node = node
        for sub in ast.walk(value_node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
        return used

    def _extract_calls(self, node: ast.stmt, aliases: Dict[str, str]) -> List[CallInfo]:
        calls: List[CallInfo] = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            full_name = self._resolve_call_name(sub.func, aliases)
            if full_name is None:
                continue
            short_name = full_name.split(".")[-1]
            if short_name in INSIGNIFICANT_CALLS:
                continue
            call = CallInfo(
                full_name=full_name,
                library=full_name.split(".")[0],
                positional_arguments=[_literal(argument) for argument in sub.args],
                keyword_arguments={
                    keyword.arg: _literal(keyword.value)
                    for keyword in sub.keywords
                    if keyword.arg is not None
                },
            )
            calls.append(call)
        return calls

    def _resolve_call_name(self, func: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
        parts: List[str] = []
        current: ast.expr = func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(aliases.get(current.id, current.id))
            return ".".join(reversed(parts))
        if isinstance(current, ast.Call):
            # Chained call like scaler.fit_transform(...) on a constructor result;
            # resolve the inner call and append the attribute chain.
            inner = self._resolve_call_name(current.func, aliases)
            if inner is None:
                return None
            return ".".join([inner] + list(reversed(parts)))
        if parts:
            # Method call on a local variable, e.g. df.drop(...) -> keep method name.
            return ".".join(reversed(parts))
        return None

    # ----------------------------------------------------------------- links
    @staticmethod
    def _link_code_flow(statements: List[Statement]) -> None:
        for i, statement in enumerate(statements[:-1]):
            statement.next_statement = statements[i + 1].index

    @staticmethod
    def _link_data_flow(statements: List[Statement]) -> None:
        for i, statement in enumerate(statements):
            relevant = statement.defined_variables | statement.used_variables
            if not relevant:
                continue
            for later in statements[i + 1 :]:
                if relevant & (later.used_variables | later.defined_variables):
                    statement.data_flow_next.append(later.index)
