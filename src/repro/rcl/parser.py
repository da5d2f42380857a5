"""RCL recursive-descent parser (grammar of Figure 7).

The grammar's choice points (``p => g`` vs ``e1 ⊙ e2`` vs ``r1 = r2``) are
resolved by bounded backtracking: the parser snapshots its position, tries
the guarded form, and falls back. The intent-level ``imply`` is accepted as
sugar for ``(not g1) or g2`` — the paper's third use case (§4.3) composes
whole intents with ``imply``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.rcl import ast
from repro.rcl.errors import RclParseError
from repro.rcl.lexer import Token, tokenize

COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
AGG_FUNCS = ("count", "distCnt", "distVals")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: List[Token] = tokenize(text)
        self.index = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            raise RclParseError(
                f"expected {text or kind!r}, found {actual.text or 'end of input'!r}",
                actual.position,
                self.text,
            )
        return token

    def error(self, message: str) -> RclParseError:
        token = self.peek()
        return RclParseError(message, token.position, self.text)

    # -- entry ---------------------------------------------------------------

    def parse_intent_full(self) -> ast.Intent:
        intent = self.parse_intent()
        if self.peek().kind != "eof":
            raise self.error(f"trailing input {self.peek().text!r}")
        return intent

    # -- intents -----------------------------------------------------------------

    def parse_intent(self) -> ast.Intent:
        return self.parse_intent_imply()

    def parse_intent_imply(self) -> ast.Intent:
        left = self.parse_intent_or()
        if self.accept("keyword", "imply"):
            right = self.parse_intent_imply()
            return ast.IntentBinary("imply", left, right)
        return left

    def parse_intent_or(self) -> ast.Intent:
        left = self.parse_intent_and()
        while self.accept("keyword", "or"):
            left = ast.IntentBinary("or", left, self.parse_intent_and())
        return left

    def parse_intent_and(self) -> ast.Intent:
        left = self.parse_intent_unary()
        while self.accept("keyword", "and"):
            left = ast.IntentBinary("and", left, self.parse_intent_unary())
        return left

    def parse_intent_unary(self) -> ast.Intent:
        # Guarded intent: predicate => intent. Tried before the intent-level
        # "not" so that ``not p => g`` reads as ``(not p) => g`` — "not p"
        # is a route-predicate form in Figure 7's grammar.
        saved = self.index
        try:
            predicate = self.parse_predicate()
            if self.accept("=>"):
                # The guard body is greedy: it extends to the end of the
                # enclosing intent (quantifier-style scoping).
                return ast.Guarded(predicate, self.parse_intent())
        except RclParseError:
            pass
        self.index = saved
        if self.accept("keyword", "not"):
            return ast.IntentNot(self.parse_intent_unary())
        return self.parse_intent_atom()

    def parse_intent_atom(self) -> ast.Intent:
        if self.peek().kind == "keyword" and self.peek().text == "forall":
            return self.parse_forall()

        # Parenthesized intent.
        if self.peek().kind == "(":
            saved = self.index
            try:
                self.expect("(")
                inner = self.parse_intent()
                self.expect(")")
                return inner
            except RclParseError:
                self.index = saved

        # RIB comparison or value comparison.
        return self.parse_comparison_intent()

    def parse_forall(self) -> ast.Intent:
        self.expect("keyword", "forall")
        field = ast.FieldName(self.expect_field())
        if self.accept("keyword", "in"):
            values = self.parse_set_literal()
            self.expect(":")
            # forall bodies are greedy, like guard bodies: §4.3's third use
            # case needs the intent-level `imply` to bind inside the forall.
            return ast.ForallIn(field, values, self.parse_intent())
        self.expect(":")
        return ast.ForallField(field, self.parse_intent())

    def parse_comparison_intent(self) -> ast.Intent:
        # A transformation on the left can be a RIB comparison (r1 = r2) or
        # the start of an evaluation (r |> f(...)). A leading '(' is
        # ambiguous — "(PRE ++ POST) |> ..." opens a transformation while
        # "(PRE |> count() / 2) != ..." opens an evaluation — so the
        # transformation reading backtracks into the evaluation reading.
        if self._at_transformation():
            saved = self.index
            try:
                return self._parse_comparison_from_transformation()
            except RclParseError:
                self.index = saved

        left = self.parse_evaluation()
        op = self.expect_comparison()
        right = self.parse_evaluation()
        return ast.ValueCompare(op, left, right)

    def _parse_comparison_from_transformation(self) -> ast.Intent:
        left_r = self.parse_transformation()
        if self.peek().kind == "|>":
            left_e = self._finish_evaluation(self.parse_evaluation_tail(left_r))
            op = self.expect_comparison()
            right_e = self.parse_evaluation()
            return ast.ValueCompare(op, left_e, right_e)
        op_token = self.peek()
        if op_token.kind in ("=", "!="):
            self.advance()
            right_r = self.parse_transformation()
            return ast.RibCompare(op_token.kind, left_r, right_r)
        raise self.error("expected '|>', '=' or '!=' after RIB transformation")

    def expect_comparison(self) -> str:
        token = self.peek()
        if token.kind in COMPARISONS:
            self.advance()
            return token.kind
        raise self.error(f"expected comparison operator, found {token.text!r}")

    # -- predicates ----------------------------------------------------------------

    def parse_predicate(self) -> ast.Predicate:
        return self.parse_pred_imply()

    def parse_pred_imply(self) -> ast.Predicate:
        left = self.parse_pred_or()
        if self.accept("keyword", "imply"):
            return ast.PredBinary("imply", left, self.parse_pred_imply())
        return left

    def parse_pred_or(self) -> ast.Predicate:
        left = self.parse_pred_and()
        while self.accept("keyword", "or"):
            left = ast.PredBinary("or", left, self.parse_pred_and())
        return left

    def parse_pred_and(self) -> ast.Predicate:
        left = self.parse_pred_unary()
        while self.accept("keyword", "and"):
            left = ast.PredBinary("and", left, self.parse_pred_unary())
        return left

    def parse_pred_unary(self) -> ast.Predicate:
        if self.accept("keyword", "not"):
            return ast.PredNot(self.parse_pred_unary())
        if self.peek().kind == "(":
            self.expect("(")
            inner = self.parse_predicate()
            self.expect(")")
            return inner
        return self.parse_pred_atom()

    def parse_pred_atom(self) -> ast.Predicate:
        field = ast.FieldName(self.expect_field())
        token = self.peek()
        if token.kind in COMPARISONS:
            self.advance()
            return ast.FieldCompare(field, token.kind, self.parse_literal())
        if token.kind == "keyword" and token.text in ("contains", "has"):
            # "has" is the paper's §4.3 surface alias for "contains".
            self.advance()
            return ast.FieldContains(field, self.parse_literal())
        if token.kind == "keyword" and token.text == "in":
            self.advance()
            return ast.FieldIn(field, self.parse_set_literal())
        if token.kind == "keyword" and token.text == "matches":
            self.advance()
            regex = self.expect("string")
            return ast.FieldMatches(field, regex.text)
        raise self.error(
            f"expected a route predicate operator after field {field.name!r}"
        )

    def expect_field(self) -> str:
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            return token.text
        raise self.error(f"expected a field name, found {token.text!r}")

    # -- transformations ------------------------------------------------------------

    def _at_transformation(self) -> bool:
        token = self.peek()
        if token.kind == "keyword" and token.text in ("PRE", "POST"):
            return True
        if token.kind == "(":
            # A (possibly nested) parenthesized transformation: the first
            # non-'(' token must be PRE/POST.
            offset = 1
            while self.peek(offset).kind == "(":
                offset += 1
            inner = self.peek(offset)
            return inner.kind == "keyword" and inner.text in ("PRE", "POST")
        return False

    def parse_transformation(self) -> ast.Transformation:
        # ``++`` (concatenation) binds loosest: r1 || p ++ r2 reads as
        # (r1 || p) ++ r2.
        left = self.parse_transformation_atom()
        while self.peek().kind == "++":
            self.advance()
            left = ast.Concat(left, self.parse_transformation_atom())
        return left

    def parse_transformation_atom(self) -> ast.Transformation:
        token = self.peek()
        if token.kind == "(" and self._at_transformation():
            self.expect("(")
            inner = self.parse_transformation()
            self.expect(")")
            result: ast.Transformation = inner
        elif self.accept("keyword", "PRE"):
            result = ast.Pre()
        elif self.accept("keyword", "POST"):
            result = ast.Post()
        else:
            raise self.error("expected PRE or POST")
        while self.peek().kind == "||":
            self.advance()
            if self.accept("("):
                predicate = self.parse_predicate()
                self.expect(")")
            else:
                predicate = self.parse_pred_atom()
            result = ast.Filter(result, predicate)
        return result

    # -- evaluations ------------------------------------------------------------------

    def parse_evaluation(self) -> ast.Evaluation:
        return self.parse_eval_additive()

    def parse_eval_additive(self) -> ast.Evaluation:
        left = self.parse_eval_multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            left = ast.Arith(op, left, self.parse_eval_multiplicative())
        return left

    def parse_eval_multiplicative(self) -> ast.Evaluation:
        left = self.parse_eval_atom()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            left = ast.Arith(op, left, self.parse_eval_atom())
        return left

    def _finish_evaluation(self, atom: ast.Evaluation) -> ast.Evaluation:
        """Continue arithmetic parsing after an already-parsed atom."""
        left = atom
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            left = ast.Arith(op, left, self.parse_eval_atom())
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            left = ast.Arith(op, left, self.parse_eval_multiplicative())
        return left

    def parse_eval_atom(self) -> ast.Evaluation:
        if self.peek().kind == "(":
            # A '(' may open a parenthesized EVALUATION ("(PRE |> count() +
            # 1)") or a parenthesized TRANSFORMATION feeding a pipe
            # ("(PRE ++ POST) |> count()"). Try the evaluation reading
            # first, falling back to the transformation reading.
            saved = self.index
            try:
                self.expect("(")
                inner = self.parse_evaluation()
                self.expect(")")
                return inner
            except RclParseError:
                self.index = saved
        if self._at_transformation():
            source = self.parse_transformation()
            return self.parse_evaluation_tail(source)
        if self.peek().kind == "{":
            return ast.LiteralEval(self.parse_set_literal())
        return ast.LiteralEval(self.parse_literal())

    def parse_evaluation_tail(self, source: ast.Transformation) -> ast.Evaluation:
        self.expect("|>")
        func_token = self.peek()
        if func_token.kind != "keyword" or func_token.text not in AGG_FUNCS:
            raise self.error(
                f"expected an aggregate function {AGG_FUNCS}, found {func_token.text!r}"
            )
        self.advance()
        self.expect("(")
        field: Optional[ast.FieldName] = None
        if func_token.text != "count":
            field = ast.FieldName(self.expect_field())
        self.expect(")")
        return ast.Aggregate(source, func_token.text, field)

    # -- literals -----------------------------------------------------------------------

    def parse_literal(self) -> ast.Literal:
        token = self.peek()
        if token.kind in ("value", "ident", "string"):
            self.advance()
            return ast.Literal(_coerce(token.text, token.kind))
        raise self.error(f"expected a value, found {token.text!r}")

    def parse_set_literal(self) -> ast.SetLiteral:
        self.expect("{")
        values: List = []
        if self.peek().kind != "}":
            values.append(self.parse_literal().value)
            while self.accept(","):
                values.append(self.parse_literal().value)
        self.expect("}")
        return ast.SetLiteral(tuple(values))


def _coerce(text: str, kind: str):
    """Numbers become ints/floats; everything else stays a string."""
    if kind == "string":
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse(text: str) -> ast.Intent:
    """Parse an RCL specification into its AST."""
    return _Parser(text).parse_intent_full()
