"""RCL evaluation (Figure 11) and verification (Algorithms 1-2).

``check`` evaluates an intent on a (base, updated) pair of global RIBs.
``verify`` additionally collects counter-examples: for an unsatisfied
intent, it pinpoints the violated basic comparisons, the scope that was
selected when they failed (guard predicates, forall group values), and
sample routes demonstrating the violation (§4.4).

Two things keep the cost with the change rather than the network. A
predicate is compiled once into a function of a row, with its literal
already normalized, and normal forms of row values are memoised. And when
the updated RIB is a :class:`~repro.routing.rib.GlobalRibView` patch of the
base one, a RIB expression evaluates to a *patch* — the filters applied so
far plus the rows the two worlds do not share — so that ``PRE = POST``
under any guard compares the rows at the spliced slots only (``_Rows``).
Whatever needs a whole table (aggregates, ``++``, ``forall`` over a field,
a comparison whose sides were filtered differently) materialises it and
runs the same code a plain RIB does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.net.addr import IPAddress, Prefix
from repro.rcl import ast
from repro.rcl.errors import RclTypeError
from repro.rcl.parser import parse
from repro.routing.rib import (
    GlobalRib,
    GlobalRibView,
    RibRoute,
    field_extractor,
)

MAX_SAMPLE_ROWS = 5


# ---------------------------------------------------------------------------
# Value normalization
# ---------------------------------------------------------------------------

# Normal forms by text. Row values repeat — a WAN has tens of device names
# and next hops under thousands of rows — and an address parse that ends in
# ``ValueError`` is the slow way to learn that a device name is not one.
# Cleared on overflow like ``addr._PREFIX_PARSE_CACHE``.
_NORMAL_FORM_LIMIT = 1 << 16
_NORMAL_FORMS: Dict[str, str] = {}


def _normalize(value) -> Union[str, int, float]:
    """Normalize literal values so e.g. ``10.0.0.0/24`` compares textually."""
    if isinstance(value, (int, float)):
        return value
    text = str(value)
    normal = _NORMAL_FORMS.get(text)
    if normal is None:
        try:
            normal = str(Prefix.parse(text) if "/" in text else IPAddress.parse(text))
        except ValueError:
            normal = text
        if len(_NORMAL_FORMS) >= _NORMAL_FORM_LIMIT:
            _NORMAL_FORMS.clear()
        _NORMAL_FORMS[text] = normal
    return normal


def _normalized_set(values) -> frozenset:
    return frozenset(_normalize(v) for v in values)


def _comparable(a, b) -> Tuple:
    """Coerce both sides to a comparable pair (numbers, else strings)."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a, b
    if isinstance(a, (frozenset, set)) or isinstance(b, (frozenset, set)):
        left = _normalized_set(a if isinstance(a, (set, frozenset)) else {a})
        right = _normalized_set(b if isinstance(b, (set, frozenset)) else {b})
        return left, right
    return str(_normalize(a)), str(_normalize(b))


def _compare(op: str, a, b) -> bool:
    return _compare_coerced(op, *_comparable(a, b))


def _compare_coerced(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if isinstance(left, frozenset) or isinstance(right, frozenset):
        raise RclTypeError(f"ordering comparison {op!r} is not defined on sets")
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise RclTypeError(f"cannot compare {left!r} {op} {right!r}") from exc
    raise RclTypeError(f"unknown comparison {op!r}")


# ---------------------------------------------------------------------------
# Route predicates (Figure 11a)
# ---------------------------------------------------------------------------

RowTest = Callable[[RibRoute], bool]


def _compile_predicate(predicate: ast.Predicate) -> RowTest:
    """A predicate as a function of a row.

    Everything that depends on the predicate alone happens here, once:
    field names are resolved (an unknown one raises now, whether or not a
    row ever reaches it) and literals are normalized. Type errors that
    depend on a row's value are raised when a row is tested.
    """
    if isinstance(predicate, ast.FieldCompare):
        return _compile_compare(predicate)
    if isinstance(predicate, ast.FieldContains):
        name = predicate.field.name
        get = field_extractor(name)
        wanted = _normalize(predicate.value.value)

        def contains(row: RibRoute) -> bool:
            value = get(row)
            if not isinstance(value, (set, frozenset)):
                raise RclTypeError(
                    f"'contains' requires a set field, {name!r} is "
                    f"{type(value).__name__}"
                )
            return wanted in _normalized_set(value)

        return contains
    if isinstance(predicate, ast.FieldIn):
        get = field_extractor(predicate.field.name)
        allowed = _normalized_set(predicate.values.values)
        return lambda row: _normalize(get(row)) in allowed
    if isinstance(predicate, ast.FieldMatches):
        get = field_extractor(predicate.field.name)
        # Appendix A: re_match(s, regex) is true iff the ENTIRE s matches.
        fullmatch = re.compile(predicate.regex).fullmatch

        def matches(row: RibRoute) -> bool:
            value = get(row)
            if isinstance(value, (set, frozenset)):
                raise RclTypeError("'matches' requires a string field")
            return fullmatch(str(value)) is not None

        return matches
    if isinstance(predicate, ast.PredBinary):
        left = _compile_predicate(predicate.left)
        right = _compile_predicate(predicate.right)
        if predicate.op == "and":
            return lambda row: left(row) and right(row)
        if predicate.op == "or":
            return lambda row: left(row) or right(row)
        if predicate.op == "imply":
            return lambda row: (not left(row)) or right(row)
    if isinstance(predicate, ast.PredNot):
        operand = _compile_predicate(predicate.operand)
        return lambda row: not operand(row)
    raise RclTypeError(f"unknown predicate node {type(predicate).__name__}")


def _compile_compare(predicate: ast.FieldCompare) -> RowTest:
    """``field op literal``: ``_comparable`` with the literal's side done."""
    get = field_extractor(predicate.field.name)
    op, literal = predicate.op, predicate.value.value
    numeric = isinstance(literal, (int, float))
    normal = _normalize(literal)
    as_text, as_set = str(normal), frozenset({normal})

    def compare(row: RibRoute) -> bool:
        value = get(row)
        if isinstance(value, (int, float)):
            if numeric:
                return _compare_coerced(op, value, literal)
            return _compare_coerced(op, str(value), as_text)
        if isinstance(value, (set, frozenset)):
            return _compare_coerced(op, _normalized_set(value), as_set)
        return _compare_coerced(op, str(_normalize(value)), as_text)

    return compare


# ---------------------------------------------------------------------------
# Verdicts and counter-examples
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    """One violated basic intent, with its scope and sample routes."""

    expression: str
    scope: List[str] = field(default_factory=list)
    message: str = ""
    sample_rows: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        where = " / ".join(self.scope) if self.scope else "(top level)"
        lines = [f"violated: {self.expression}", f"  scope: {where}"]
        if self.message:
            lines.append(f"  {self.message}")
        for row in self.sample_rows:
            lines.append(f"  route: {row}")
        return "\n".join(lines)


@dataclass
class VerificationResult:
    satisfied: bool
    violations: List[Violation] = field(default_factory=list)
    #: rows read while evaluating: every pass of a filter, a comparison, an
    #: aggregate or a grouping over a row list adds the length of the list
    rows_scanned: int = 0

    def __bool__(self) -> bool:
        return self.satisfied

    def report(self) -> str:
        if self.satisfied:
            return "intent satisfied"
        parts = [f"intent VIOLATED ({len(self.violations)} violations)"]
        parts.extend(str(v) for v in self.violations)
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# RIB values: tables, or patches of the rows PRE and POST share
# ---------------------------------------------------------------------------


class _Rows:
    """The value of a RIB expression: a table, maybe known only as a patch.

    Plain (``view is None``): ``rows`` is the table.

    Patch: the table is the rows of ``world`` — ``view`` itself, or the base
    table it patches — taken through the row tests of ``chain`` in turn.
    Of that table ``rows`` holds only what ``view`` does not share between
    PRE and POST: the dropped (PRE) or installed (POST) rows that pass the
    chain. Two patches of one view with equal chain keys contain the same
    shared rows, so comparing their tables is comparing their ``rows``.
    """

    __slots__ = ("rows", "world", "view", "chain", "table")

    def __init__(
        self,
        rows: List[RibRoute],
        world: Optional[GlobalRib] = None,
        view: Optional[GlobalRibView] = None,
        chain: Tuple[Tuple[Hashable, RowTest], ...] = (),
    ) -> None:
        self.rows = rows
        self.world, self.view, self.chain = world, view, chain
        #: the whole table, once something needed it
        self.table: Optional[List[RibRoute]] = rows if view is None else None

    def shares_rows_with(self, other: "_Rows") -> bool:
        return (
            self.view is not None
            and self.view is other.view
            and [key for key, _ in self.chain] == [key for key, _ in other.chain]
        )


def _worlds(base: GlobalRib, updated: GlobalRib) -> Tuple[_Rows, _Rows]:
    """``PRE`` and ``POST``: patches when ``updated`` is a view of ``base``."""
    if isinstance(updated, GlobalRibView) and updated.base is base:
        return (
            _Rows(updated.dropped, base, updated),
            _Rows(updated.installed, updated, updated),
        )
    return _Rows(base.rows), _Rows(updated.rows)


# ---------------------------------------------------------------------------
# Transformations and evaluations (Figure 11b/c), intent checking
# (Figure 11d / Algorithm 1) with counter-examples
# ---------------------------------------------------------------------------


class _Checker:
    def __init__(self, collect: bool) -> None:
        self.collect = collect
        self.violations: List[Violation] = []
        self.rows_scanned = 0
        #: id(predicate node) -> (chain key, compiled test); the intent tree
        #: outlives the checker, and a ``forall`` body asks once per group
        self._tests: Dict[int, Tuple[str, RowTest]] = {}

    # -- rows ---------------------------------------------------------------

    def _keyed_test(self, predicate: ast.Predicate) -> Tuple[str, RowTest]:
        """The compiled predicate and the key it has in a filter chain.

        ``repr`` rather than the node: ``Literal(1) == Literal(1.0)``, but
        against a text field the two select different rows.
        """
        keyed = self._tests.get(id(predicate))
        if keyed is None:
            keyed = repr(predicate), _compile_predicate(predicate)
            self._tests[id(predicate)] = keyed
        return keyed

    def _filter(self, side: _Rows, key: Hashable, test: RowTest) -> _Rows:
        self.rows_scanned += len(side.rows)
        kept = [row for row in side.rows if test(row)]
        if side.view is None:
            return _Rows(kept)
        return _Rows(kept, side.world, side.view, side.chain + ((key, test),))

    def _table(self, side: _Rows) -> List[RibRoute]:
        """Every row of ``side``; a patch is materialised, once."""
        if side.table is None:
            rows = side.world.rows
            for _, test in side.chain:
                self.rows_scanned += len(rows)
                rows = [row for row in rows if test(row)]
            side.table = rows
        return side.table

    def _identities(self, rows: List[RibRoute]) -> FrozenSet[Tuple]:
        self.rows_scanned += len(rows)
        return frozenset(row.identity() for row in rows)

    # -- transformations and evaluations --------------------------------------

    def _transform(
        self, node: ast.Transformation, base: _Rows, updated: _Rows
    ) -> _Rows:
        if isinstance(node, ast.Pre):
            return base
        if isinstance(node, ast.Post):
            return updated
        if isinstance(node, ast.Filter):
            source = self._transform(node.source, base, updated)
            return self._filter(source, *self._keyed_test(node.predicate))
        if isinstance(node, ast.Concat):
            left = self._transform(node.left, base, updated)
            right = self._transform(node.right, base, updated)
            return _Rows(self._table(left) + self._table(right))
        raise RclTypeError(f"unknown transformation node {type(node).__name__}")

    def _evaluate(self, node: ast.Evaluation, base: _Rows, updated: _Rows):
        if isinstance(node, ast.LiteralEval):
            literal = node.literal
            if isinstance(literal, ast.SetLiteral):
                return _normalized_set(literal.values)
            return literal.value
        if isinstance(node, ast.Aggregate):
            rows = self._table(self._transform(node.source, base, updated))
            if node.func == "count":
                return len(rows)
            assert node.field is not None
            get = field_extractor(node.field.name)
            self.rows_scanned += len(rows)
            collected: Set = set()
            for row in rows:
                value = get(row)
                if isinstance(value, (set, frozenset)):
                    collected.add(_normalized_set(value))
                else:
                    collected.add(_normalize(value))
            if node.func == "distCnt":
                return len(collected)
            if node.func == "distVals":
                return frozenset(collected)
            raise RclTypeError(f"unknown aggregate {node.func!r}")
        if isinstance(node, ast.Arith):
            left = self._evaluate(node.left, base, updated)
            right = self._evaluate(node.right, base, updated)
            if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
                raise RclTypeError(
                    f"arithmetic requires numbers, got {left!r} and {right!r}"
                )
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if right == 0:
                    raise RclTypeError("division by zero in RIB evaluation")
                return left / right
        raise RclTypeError(f"unknown evaluation node {type(node).__name__}")

    # -- intents ---------------------------------------------------------------

    def check(
        self,
        intent: ast.Intent,
        base: _Rows,
        updated: _Rows,
        scope: List[str],
    ) -> bool:
        if isinstance(intent, ast.RibCompare):
            left = self._transform(intent.left, base, updated)
            right = self._transform(intent.right, base, updated)
            if left.shares_rows_with(right):
                # the shared rows are on both sides, and no row outside
                # them has the identity of one inside: they cancel out
                left_rows, right_rows = left.rows, right.rows
            else:
                left_rows, right_rows = self._table(left), self._table(right)
            delta = self._identities(left_rows) ^ self._identities(right_rows)
            ok = (not delta) if intent.op == "=" else bool(delta)
            if not ok and self.collect:
                samples = [
                    str(row)
                    for rows in (left_rows, right_rows)
                    for row in rows
                    if row.identity() in delta
                ][:MAX_SAMPLE_ROWS]
                self.violations.append(
                    Violation(
                        expression=str(intent),
                        scope=list(scope),
                        message=(
                            f"RIBs differ in {len(delta)} rows"
                            if intent.op == "="
                            else "RIBs are identical"
                        ),
                        sample_rows=samples,
                    )
                )
            return ok

        if isinstance(intent, ast.ValueCompare):
            left = self._evaluate(intent.left, base, updated)
            right = self._evaluate(intent.right, base, updated)
            ok = _compare(intent.op, left, right)
            if not ok and self.collect:
                self.violations.append(
                    Violation(
                        expression=str(intent),
                        scope=list(scope),
                        message=f"evaluated to {_render(left)} {intent.op} {_render(right)}",
                        sample_rows=self._relevant_rows(intent, base, updated),
                    )
                )
            return ok

        if isinstance(intent, ast.Guarded):
            key, test = self._keyed_test(intent.predicate)
            return self.check(
                intent.body,
                self._filter(base, key, test),
                self._filter(updated, key, test),
                scope + [f"where {intent.predicate}"],
            )

        if isinstance(intent, ast.ForallField):
            field_name = intent.field.name
            get = field_extractor(field_name)
            tables = self._table(base), self._table(updated)
            self.rows_scanned += len(tables[0]) + len(tables[1])
            values = sorted(
                {_normalize(_setkey(get(row))) for rows in tables for row in rows},
                key=str,
            )
            ok = True
            for value in values:
                if not self._check_group(intent, field_name, value, base, updated, scope):
                    ok = False
            return ok

        if isinstance(intent, ast.ForallIn):
            ok = True
            for value in intent.values.values:
                if not self._check_group(
                    intent, intent.field.name, _normalize(value), base, updated, scope
                ):
                    ok = False
            return ok

        if isinstance(intent, ast.IntentBinary):
            if intent.op == "and":
                left = self.check(intent.left, base, updated, scope)
                right = self.check(intent.right, base, updated, scope)
                return left and right
            if intent.op == "or":
                saved = len(self.violations)
                left = self.check(intent.left, base, updated, scope)
                right = self.check(intent.right, base, updated, scope)
                if left or right:
                    del self.violations[saved:]  # a satisfied branch absolves
                    return True
                return False
            if intent.op == "imply":
                saved = len(self.violations)
                left = self.check(intent.left, base, updated, scope)
                if not left:
                    del self.violations[saved:]  # vacuously true
                    return True
                return self.check(
                    intent.right, base, updated, scope + [f"given {intent.left}"]
                )

        if isinstance(intent, ast.IntentNot):
            saved = len(self.violations)
            inner = self.check(intent.operand, base, updated, scope)
            del self.violations[saved:]
            ok = not inner
            if not ok and self.collect:
                self.violations.append(
                    Violation(
                        expression=str(intent),
                        scope=list(scope),
                        message="negated intent is satisfied",
                    )
                )
            return ok

        raise RclTypeError(f"unknown intent node {type(intent).__name__}")

    def _check_group(
        self,
        intent: Union[ast.ForallField, ast.ForallIn],
        field_name: str,
        value,
        base: _Rows,
        updated: _Rows,
        scope: List[str],
    ) -> bool:
        get = field_extractor(field_name)

        def match(row: RibRoute) -> bool:
            row_value = get(row)
            if isinstance(row_value, (set, frozenset)):
                return _normalized_set(row_value) == value
            return _normalize(row_value) == value

        key = ("forall", field_name, value)
        return self.check(
            intent.body,
            self._filter(base, key, match),
            self._filter(updated, key, match),
            scope + [f"{field_name} = {_render(value)}"],
        )

    def _relevant_rows(
        self, intent: ast.ValueCompare, base: _Rows, updated: _Rows
    ) -> List[str]:
        rows: List[str] = []
        for side in (intent.left, intent.right):
            if isinstance(side, ast.Aggregate):
                table = self._table(self._transform(side.source, base, updated))
                rows.extend(str(row) for row in table[:MAX_SAMPLE_ROWS])
        return rows[:MAX_SAMPLE_ROWS]


def _setkey(value):
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    return value


def _render(value) -> str:
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(str(v) for v in value)) + "}"
    return str(value)


def check(
    intent: Union[str, ast.Intent], base: GlobalRib, updated: GlobalRib
) -> bool:
    """Evaluate an intent (text or AST) to a Boolean (Algorithm 1)."""
    node = parse(intent) if isinstance(intent, str) else intent
    return _Checker(collect=False).check(node, *_worlds(base, updated), [])


def verify(
    intent: Union[str, ast.Intent], base: GlobalRib, updated: GlobalRib
) -> VerificationResult:
    """Evaluate an intent and collect counter-examples for violations.

    When ``updated`` is a :class:`~repro.routing.rib.GlobalRibView` patch
    of ``base``, a RIB comparison whose two sides went through the same
    filters reads only the rows the patch dropped and installed; anything
    else reads the whole tables. The result is the same either way.
    """
    node = parse(intent) if isinstance(intent, str) else intent
    checker = _Checker(collect=True)
    satisfied = checker.check(node, *_worlds(base, updated), [])
    return VerificationResult(
        satisfied=satisfied,
        violations=checker.violations,
        rows_scanned=checker.rows_scanned,
    )
