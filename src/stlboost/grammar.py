"""Text grammar for formulas: tokenizer, recursive-descent parser, printer.

Grammar (whitespace insignificant)::

    formula := disj
    disj    := conj ("|" conj)*
    conj    := unary ("&" weights? unary)*
    weights := "^{" real ("," real)* "}"
    unary   := "!" unary | "G[" int "," int "]" unary | "F[" int "," int "]" unary
             | "(" formula ")" | pred | "true" | "false"
    pred    := var ("<=" | ">") real
    var     := "x" int

Operators nest at most ``MAX_NESTING`` deep: each "(", "!", "G[..]" and
"F[..]" counts one level, and deeper text is a ParseError.

A single weight group annotates the whole conjunction and must list one
positive weight per conjunct.  An unweighted conjunction whose members are
all predicates is canonicalized into one box predicate when the merged
faces form a valid box; this is the parser's normal form and the printer's
round-trip target.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .formula import (
    GT,
    LE,
    And,
    Always,
    BooleanConst,
    BoxPredicate,
    Conjunct,
    Eventually,
    Formula,
    Not,
    Or,
    Predicate,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class SemanticError(ParseError):
    """Well-formed text with an invalid meaning, e.g. interval a > b."""


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>x\d+)
  | (?P<kw>true|false|G|F)
  | (?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<cmp><=|>)
  | (?P<weights>\^\{)
  | (?P<punct>[()\[\],&|!}])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind if kind != "punct" else chunk, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


MAX_NESTING = 100  # deepest chain of "(", "!", "G[..]" and "F[..]" the parser accepts


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                tok.line,
                tok.column,
                expected=(what,),
            )
        return self.advance()

    def parse(self) -> Formula:
        phi = self.disj()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return phi

    def disj(self) -> Formula:
        children = [self.conj()]
        while self.peek().kind == "|":
            self.advance()
            children.append(self.conj())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def conj(self) -> Formula:
        children = [self.unary()]
        weights: tuple[float, ...] | None = None
        weights_at: _Token | None = None
        while self.peek().kind == "&":
            amp = self.advance()
            if self.peek().kind == "weights":
                if weights is not None:
                    raise SemanticError(
                        "multiple weight groups on one conjunction", amp.line, amp.column
                    )
                weights_at = amp
                weights = self.weight_group()
            children.append(self.unary())
        if len(children) == 1:
            return children[0]
        if weights is not None:
            if len(weights) != len(children):
                raise SemanticError(
                    f"{len(weights)} weights for {len(children)} conjuncts",
                    weights_at.line,
                    weights_at.column,
                )
            return And(tuple(children), weights)
        merged = _merge_predicates(children)
        return merged if merged is not None else And(tuple(children))

    def weight_group(self) -> tuple[float, ...]:
        opener = self.expect("weights", '"^{"')
        weights = [self.weight(opener)]
        while self.peek().kind == ",":
            self.advance()
            weights.append(self.weight(opener))
        self.expect("}", '"}"')
        return tuple(weights)

    def weight(self, opener: _Token) -> float:
        tok = self.expect("num", "weight")
        value = float(tok.text)
        if not 0 < value < math.inf:
            raise SemanticError(f"weight {tok.text} is not positive and finite",
                                tok.line, tok.column)
        return value

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("!", "(") or (tok.kind == "kw" and tok.text in ("G", "F")):
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.column)
            self.depth += 1
            phi = self.nested(tok)
            self.depth -= 1
            return phi
        if tok.kind == "kw":
            self.advance()
            return BooleanConst(tok.text == "true")
        if tok.kind == "var":
            return self.predicate()
        raise ParseError(
            f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
            tok.line,
            tok.column,
            expected=('"!"', '"G["', '"F["', '"("', "predicate", '"true"', '"false"'),
        )

    def nested(self, tok: _Token) -> Formula:
        """A negation, a temporal operator or a parenthesized formula."""
        if tok.kind == "!":
            self.advance()
            return Not(self.unary())
        if tok.kind == "kw":
            self.advance()
            start, end = self.interval()
            child = self.unary()
            return Always(start, end, child) if tok.text == "G" else Eventually(start, end, child)
        self.advance()
        phi = self.disj()
        self.expect(")", '")"')
        return phi

    def interval(self) -> tuple[int, int]:
        self.expect("[", '"["')
        start = self.bound()
        self.expect(",", '","')
        end_tok = self.peek()
        end = self.bound()
        self.expect("]", '"]"')
        if start > end:
            raise SemanticError(
                f"interval [{start},{end}] has start > end", end_tok.line, end_tok.column
            )
        return start, end

    def bound(self) -> int:
        tok = self.expect("num", "integer time bound")
        if not re.fullmatch(r"\d+", tok.text):
            raise SemanticError(f"time bound {tok.text} is not a non-negative integer",
                                tok.line, tok.column)
        return _integer(tok, tok.text, "time bound")

    def predicate(self) -> Predicate:
        var_tok = self.expect("var", "variable")
        var = _integer(var_tok, var_tok.text[1:], "variable index")
        if var < 1:
            raise SemanticError("variable indices start at x1", var_tok.line, var_tok.column)
        cmp_tok = self.expect("cmp", '"<=" or ">"')
        num_tok = self.expect("num", "threshold")
        op = LE if cmp_tok.text == "<=" else GT
        threshold = float(num_tok.text)
        if not math.isfinite(threshold):
            raise SemanticError(f"threshold {num_tok.text} is not finite",
                                num_tok.line, num_tok.column)
        return Predicate(BoxPredicate((Conjunct(var, op, threshold),)))


def _integer(tok: _Token, digits: str, what: str) -> int:
    """``int(digits)``, or a SemanticError at ``tok`` when ``digits`` pass
    the interpreter's limit on the length of an integer's text."""
    try:
        return int(digits)
    except ValueError:
        raise SemanticError(f"{what} has too many digits", tok.line, tok.column) from None


def _merge_predicates(children: list[Formula]) -> Predicate | None:
    if not all(isinstance(c, Predicate) for c in children):
        return None
    conjuncts: list[Conjunct] = []
    for child in children:
        conjuncts.extend(child.box.conjuncts)
    try:
        return Predicate(BoxPredicate(tuple(conjuncts)))
    except ValueError:
        return None


def parse_formula(text: str) -> Formula:
    """Parse grammar text into a formula AST (canonical form)."""
    return _Parser(text).parse()


def _fmt_number(value: float, human: bool, m_weight: float | None = None) -> str:
    if human:
        if m_weight is not None and value == m_weight:
            return "M"
        return f"{value:.2f}"
    return repr(float(value))


def _self_wrapped(phi: Formula) -> bool:
    return isinstance(phi, (And, Or)) or (
        isinstance(phi, Predicate) and len(phi.box.conjuncts) > 1
    )


def _fmt(phi: Formula, human: bool, m_weight: float | None) -> str:
    if isinstance(phi, BooleanConst):
        return "true" if phi.value else "false"
    if isinstance(phi, Predicate):
        parts = [
            f"x{c.var} {'<=' if c.op == LE else '>'} {_fmt_number(c.threshold, human)}"
            for c in phi.box.conjuncts
        ]
        if len(parts) == 1:
            return parts[0]
        return "(" + " & ".join(f"({p})" for p in parts) + ")"
    if isinstance(phi, Not):
        return "!" + _wrap(phi.child, human, m_weight)
    if isinstance(phi, And):
        rendered = [_render_operand(c, human, m_weight) for c in phi.children]
        if len(rendered) == 1:
            # A one-child conjunction cannot carry its weight in grammar text;
            # the weight survives in structured output only.
            return rendered[0]
        if phi.weights is not None:
            ws = ",".join(_fmt_number(w, human, m_weight) for w in phi.weights)
            first_sep = f" &^{{{ws}}} "
        else:
            first_sep = " & "
        text = rendered[0] + first_sep + rendered[1]
        for chunk in rendered[2:]:
            text += " & " + chunk
        return "(" + text + ")"
    if isinstance(phi, Or):
        rendered = [_render_operand(c, human, m_weight) for c in phi.children]
        return rendered[0] if len(rendered) == 1 else "(" + " | ".join(rendered) + ")"
    if isinstance(phi, (Always, Eventually)):
        op = "G" if isinstance(phi, Always) else "F"
        return f"{op}[{phi.start},{phi.end}]" + _wrap(phi.child, human, m_weight)
    raise TypeError(f"not a formula: {phi!r}")


def _render_operand(phi: Formula, human: bool, m_weight: float | None) -> str:
    text = _fmt(phi, human, m_weight)
    if isinstance(phi, Predicate) and len(phi.box.conjuncts) == 1:
        return "(" + text + ")"
    return text


def _wrap(phi: Formula, human: bool, m_weight: float | None) -> str:
    text = _fmt(phi, human, m_weight)
    return text if _self_wrapped(phi) else "(" + text + ")"


def format_formula(phi: Formula, human: bool = False, m_weight: float | None = None) -> str:
    """Render a formula as grammar text.

    Machine mode (default) prints full-precision thresholds and weights, so
    ``parse_formula(format_formula(phi))`` reproduces ``phi`` for canonical
    ASTs.  Human mode rounds numbers to two decimals and renders weights
    equal to ``m_weight`` as "M"; it is for reports only.
    """
    return _fmt(phi, human, m_weight)
