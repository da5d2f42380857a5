"""RCL abstract syntax (Figure 7).

Every node knows how to render itself back to concrete syntax and reports
whether it is an internal (non-leaf) node — the paper quantifies
specification size as the number of internal nodes in the syntax tree
(Figure 8, left).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

Value = Union[str, int, float]


class Node:
    """Base class for all AST nodes."""

    def children(self) -> Tuple["Node", ...]:
        return ()

    @property
    def is_internal(self) -> bool:
        return bool(self.children())

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


def spec_size(node: Node) -> int:
    """Number of internal (non-leaf) nodes — the Figure 8 size metric."""
    size = 1 if node.is_internal else 0
    for child in node.children():
        size += spec_size(child)
    return size


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldName(Node):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Node):
    """A concrete value: number, string, prefix, address, or community."""

    value: Value

    def __str__(self) -> str:
        if isinstance(self.value, str) and (" " in self.value or not self.value):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class SetLiteral(Node):
    values: Tuple[Value, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(str(Literal(v)) for v in self.values) + "}"


# ---------------------------------------------------------------------------
# Route predicates p
# ---------------------------------------------------------------------------


class Predicate(Node):
    pass


@dataclass(frozen=True)
class FieldCompare(Predicate):
    field: FieldName
    op: str  # = != < <= > >=
    value: Literal

    def children(self):
        return (self.field, self.value)

    def __str__(self) -> str:
        return f"{self.field} {self.op} {self.value}"


@dataclass(frozen=True)
class FieldContains(Predicate):
    field: FieldName
    value: Literal

    def children(self):
        return (self.field, self.value)

    def __str__(self) -> str:
        return f"{self.field} contains {self.value}"


@dataclass(frozen=True)
class FieldIn(Predicate):
    field: FieldName
    values: SetLiteral

    def children(self):
        return (self.field, self.values)

    def __str__(self) -> str:
        return f"{self.field} in {self.values}"


@dataclass(frozen=True)
class FieldMatches(Predicate):
    field: FieldName
    regex: str

    def children(self):
        return (self.field,)

    def __str__(self) -> str:
        return f'{self.field} matches "{self.regex}"'


@dataclass(frozen=True)
class PredBinary(Predicate):
    op: str  # and | or | imply
    left: Predicate
    right: Predicate

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class PredNot(Predicate):
    operand: Predicate

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"not ({self.operand})"


# ---------------------------------------------------------------------------
# RIB transformations r
# ---------------------------------------------------------------------------


class Transformation(Node):
    pass


@dataclass(frozen=True)
class Pre(Transformation):
    def __str__(self) -> str:
        return "PRE"


@dataclass(frozen=True)
class Post(Transformation):
    def __str__(self) -> str:
        return "POST"


@dataclass(frozen=True)
class Filter(Transformation):
    source: Transformation
    predicate: Predicate

    def children(self):
        return (self.source, self.predicate)

    def __str__(self) -> str:
        return f"{self.source} || ({self.predicate})"


@dataclass(frozen=True)
class Concat(Transformation):
    """``r1 ++ r2`` — RIB concatenation (union of rows).

    §4.4 notes the intents Hoyan could not yet express "require
    concatenation of two RIBs" and were planned future work; this node
    implements that extension, enabling intents over the combined
    base+updated view (e.g. "across both snapshots, prefix P never has
    more than 2 distinct next hops").
    """

    left: Transformation
    right: Transformation

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ++ {self.right})"


# ---------------------------------------------------------------------------
# RIB evaluations e
# ---------------------------------------------------------------------------


class Evaluation(Node):
    pass


@dataclass(frozen=True)
class LiteralEval(Evaluation):
    literal: Union[Literal, SetLiteral]

    def children(self):
        return ()

    def __str__(self) -> str:
        return str(self.literal)


@dataclass(frozen=True)
class Aggregate(Evaluation):
    """``r |> f(χ?)`` — count(), distCnt(χ), distVals(χ)."""

    source: Transformation
    func: str  # count | distCnt | distVals
    field: Union[FieldName, None] = None

    def children(self):
        return (self.source,) + ((self.field,) if self.field else ())

    def __str__(self) -> str:
        arg = str(self.field) if self.field else ""
        return f"{self.source} |> {self.func}({arg})"


@dataclass(frozen=True)
class Arith(Evaluation):
    op: str  # + - * /
    left: Evaluation
    right: Evaluation

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# Intents g
# ---------------------------------------------------------------------------


class Intent(Node):
    pass


@dataclass(frozen=True)
class RibCompare(Intent):
    op: str  # = !=
    left: Transformation
    right: Transformation

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class ValueCompare(Intent):
    op: str  # = != < <= > >=
    left: Evaluation
    right: Evaluation

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Guarded(Intent):
    """``p => g`` — intent g on the scope selected by predicate p."""

    predicate: Predicate
    body: Intent

    def children(self):
        return (self.predicate, self.body)

    def __str__(self) -> str:
        # The body is greedy (extends to the end of the enclosing intent),
        # so the canonical rendering parenthesizes the whole guard — else
        # "p => g and h" would re-parse with the "and" captured by the body.
        return f"({self.predicate} => {self.body})"


@dataclass(frozen=True)
class ForallField(Intent):
    """``forall χ : g`` — g on each sub-RIB grouped by values of χ."""

    field: FieldName
    body: Intent

    def children(self):
        return (self.field, self.body)

    def __str__(self) -> str:
        # Greedy body: parenthesized for the same reason as Guarded.
        return f"(forall {self.field}: {self.body})"


@dataclass(frozen=True)
class ForallIn(Intent):
    """``forall χ in {val...} : g`` — grouping limited to given values."""

    field: FieldName
    values: SetLiteral
    body: Intent

    def children(self):
        return (self.field, self.values, self.body)

    def __str__(self) -> str:
        # Greedy body: parenthesized for the same reason as Guarded.
        return f"(forall {self.field} in {self.values}: {self.body})"


@dataclass(frozen=True)
class IntentBinary(Intent):
    op: str  # and | or | imply
    left: Intent
    right: Intent

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class IntentNot(Intent):
    operand: Intent

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"not ({self.operand})"
