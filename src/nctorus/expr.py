"""Expression grammar: parsing and canonical printing of algebra elements.

    element  := ['-'] term (('+' | '-') term)*
    term     := unit ('*' unit)*
    unit     := rational | 'e(' rational ')' | 'E(' int ')' | factor
    factor   := 'u[' int ']' ('^' int)? | '(' element ')' | 'adj(' element ')'
    rational := int ('/' posint)?

e(q) denotes e^(2*pi*i*q); E(m) denotes the symbolic e^(2*pi*i*m*beta),
which the printer only emits for irrational beta (for rational beta it folds
into an angle on input).  Parsing canonicalizes immediately: the result is a
normal-ordered element, and printing emits one grammar term per (word,
reduced phase) pair with words sorted, so parse(print(x)) == x.  Factors
'(' and 'adj(' nest at most MAX_NESTING deep; deeper input is a ParseError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd

from .algebra import Element, TorusAlgebra
from .deformation import MAX_LEVEL, InputError, factorize
from .scalars import PhaseCoefficient


MAX_NESTING = 100  # '(' and 'adj(' levels


class ParseError(InputError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


_PUNCT = set("[]()^*+-/")
_DIGITS = set("0123456789")  # str.isdigit also accepts superscripts and other scripts


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(_Token("nat", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], algebra: TorusAlgebra):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.algebra = algebra

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Element:
        x = self.element()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.value!r} after the expression")
        return x

    def element(self) -> Element:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        x = self.term()
        if negate:
            x = -x
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            t = self.term()
            x = x + t if op == "+" else x - t
        return x

    def term(self) -> Element:
        x = self.unit()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                x = x * self.unit()
            elif tok.kind == "^":
                self.fail("exponent is only allowed on a generator u[...]")
            else:
                return x

    def unit(self) -> Element:
        tok = self.peek()
        if tok.kind == "nat":
            return self.algebra.scalar(self.rational())
        if tok.kind == "name":
            if tok.value == "u":
                return self.generator()
            if tok.value == "e":
                self.advance()
                self.expect("(")
                start = self.peek()
                q = self.rational()
                if q.denominator > MAX_LEVEL:
                    raise ParseError(f"angle denominator above the limit {MAX_LEVEL}",
                                     start.line, start.column)
                self.expect(")")
                return self.algebra.scalar(PhaseCoefficient.unit_angle(q))
            if tok.value == "E":
                self.advance()
                self.expect("(")
                m = self.integer()
                self.expect(")")
                return self.algebra.scalar(self.algebra.twist_phase(m))
            if tok.value == "adj":
                self.advance()
                return self.nested().adjoint()
            self.fail(f"unknown name {tok.value!r}")
        if tok.kind == "(":
            return self.nested()
        self.fail(f"expected a term, found {tok.value or 'end of input'!r}")

    def nested(self) -> Element:
        """'(' element ')', at most MAX_NESTING deep, which keeps the
        recursive descent well inside the interpreter's recursion limit."""
        tok = self.expect("(")
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.column)
        self.depth += 1
        inner = self.element()
        self.depth -= 1
        self.expect(")")
        return inner

    def generator(self) -> Element:
        self.expect("name")
        self.expect("[")
        index = self.integer()
        self.expect("]")
        exponent = 1
        if self.peek().kind == "^":
            self.advance()
            exponent = self.integer()
        return self.algebra.u(index, exponent)

    def natural(self) -> int:
        tok = self.expect("nat")
        try:
            return int(tok.value)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(
                f"integer literal of {len(tok.value)} digits is above the limit "
                f"{sys.get_int_max_str_digits()}", tok.line, tok.column) from None

    def integer(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        return sign * self.natural()

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek().kind == "/":
            self.advance()
            tok = self.peek()
            den = self.natural()
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.column)
            return Fraction(num, den)
        return Fraction(num)


def parse(text: str, algebra: TorusAlgebra) -> Element:
    """Parse an expression into a canonical (normal-ordered) element."""
    return _Parser(_tokenize(text), algebra).parse()


def format_word(word) -> str:
    """Factors joined by '*', u[i]^e with the exponent 1 left out."""
    return "*".join(
        f"u[{i}]" if e == 1 else f"u[{i}]^{e}" for i, e in word
    )


def format_terms(pairs) -> str:
    """Grammar text of sum c*w over (word w, PhaseCoefficient c) pairs: terms
    by word, symbolic power and exponent from the integer canonical forms, in
    one signed join.  A run of terms of equal weight whose exponents are all
    prime to the level is written by one join over its exponents.  An integer
    longer than the interpreter prints is an InputError."""
    forms = [(word, coeff.canonical_form()) for word, coeff in pairs]
    out: list[str] = []
    try:
        for word, form in forms:
            text = f"*{format_word(word)}" if word else ""
            for m, level, den, exps, ns in form:
                tail = f"*E({m}){text}" if m else text
                close = f"/{level}){tail}"
                primes = [p for p, _ in factorize(level)]
                weights: dict[int, str] = {}
                end = 0
                for n, group in groupby(ns):
                    start, end = end, end + len(list(group))
                    run = exps[start:end]
                    sign = " - " if n < 0 else " + "
                    weight = weights.get(n)
                    if weight is None:
                        weight = weights[n] = str(Fraction(abs(n), den))
                    head = "e(" if n == den else weight + "*e("
                    # a level-1 form is the one term e(0), which is not written e(0/1)
                    if len(run) > 1 and all(all(map(p.__rmod__, run)) for p in primes):
                        out += (sign, head, (close + sign + head).join(map(str, run)), close)
                        continue
                    for a in run:
                        g = gcd(a, level)
                        out += (sign, f"{head}{a // g}/{level // g}){tail}" if a else
                                tail[1:] if n == den and tail else weight + tail)
    except ValueError:
        raise InputError("printed integer above the limit of "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def format_element(x: Element) -> str:
    """Canonical text form: words sorted, phases reduced, grammar-parseable."""
    return format_terms(x.terms())


def format_complex(z: complex) -> str:
    """Rendering to 12 significant digits, stable for diffing."""
    re = f"{z.real:.12g}"
    if z.imag == 0:
        return re
    im = f"{abs(z.imag):.12g}"
    sign = "+" if z.imag > 0 else "-"
    return f"{re}{sign}{im}i"
