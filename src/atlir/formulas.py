"""ATL formulas: abstract syntax, a concrete-syntax parser, a printer.

Concrete syntax::

    formula  := conj
    conj     := unary ('&' conj)?              # '&' associates to the right
    unary    := '!' unary | primary
    primary  := atom | '(' formula ')' | '<<' agents '>>' body
    body     := 'X' unary | 'G' unary | unary 'U' unary

``X`` (next), ``G`` (globally) and ``U`` (until) are reserved words.
Coalition operands bind tighter than ``&``, so compound operands need
parentheses: ``<<1>> X (p & q)``.  Negation binds tighter than
conjunction.  Disjunction and implication are not primitives; write
their De Morgan forms.

Formulas nest at most :data:`MAX_NESTING` levels deep, counting each
``!``, ``&``, parenthesis and coalition modality that encloses a
subformula; deeper text is a syntax error.  The parser, the printer and
the checker recurse once per level, so the limit keeps them inside the
interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_KEYWORDS = {"X", "G", "U"}
MAX_NESTING = 100
_TOKEN_RE = re.compile(r"<<|>>|[()!&,]|\d+|[A-Za-z_][A-Za-z0-9_]*")


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying the character position of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyCoalition(FormulaSyntaxError):
    pass


class Formula:
    """Base class of the abstract syntax tree."""

    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


class _Coalition(Formula):
    """A coalition modality; its ``agents`` are coerced to a non-empty
    frozenset of agent numbers from 1."""

    __slots__ = ()

    def __post_init__(self):
        agents = frozenset(int(a) for a in self.agents)
        if not agents:
            raise ValueError("coalition must be non-empty")
        if any(a < 1 for a in agents):
            raise ValueError("agents are numbered from 1")
        object.__setattr__(self, "agents", agents)


@dataclass(frozen=True)
class Next(_Coalition):
    agents: frozenset[int]
    operand: Formula


@dataclass(frozen=True)
class Globally(_Coalition):
    agents: frozenset[int]
    operand: Formula


@dataclass(frozen=True)
class Until(_Coalition):
    agents: frozenset[int]
    left: Formula
    right: Formula


def _subformulas(f: Formula):
    """Every subformula of ``f``, ``f`` included."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Until)):
            stack.extend((node.left, node.right))
        elif isinstance(node, (Not, Next, Globally)):
            stack.append(node.operand)


def atoms(f: Formula) -> set[str]:
    """All atomic proposition names occurring in a formula."""
    return {node.name for node in _subformulas(f) if isinstance(node, Atom)}


def coalitions(f: Formula) -> set[frozenset[int]]:
    """All coalition agent sets occurring in a formula."""
    return {node.agents for node in _subformulas(f) if isinstance(node, _Coalition)}


# -- parsing -----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append(_Token(m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.position)
        return tok

    def enter(self, tok: _Token) -> None:
        """Descend one nesting level, at the token that opens it."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", tok.position
            )
        self.depth += 1

    def parse(self) -> Formula:
        f = self.conj()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.position)
        return f

    def conj(self) -> Formula:
        left = self.unary()
        tok = self.peek()
        if tok is not None and tok.text == "&":
            self.take()
            self.enter(tok)
            right = self.conj()
            self.depth -= 1
            return And(left, right)
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is not None and tok.text == "!":
            self.take()
            self.enter(tok)
            operand = self.unary()
            self.depth -= 1
            return Not(operand)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok.text == "(":
            self.enter(tok)
            inner = self.conj()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.text == "<<":
            self.enter(tok)
            f = self.coalition(tok.position)
            self.depth -= 1
            return f
        if tok.text in _KEYWORDS:
            raise FormulaSyntaxError(f"{tok.text!r} is a reserved word", tok.position)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
            return Atom(tok.text)
        raise FormulaSyntaxError(f"expected a formula, found {tok.text!r}", tok.position)

    def coalition(self, start: int) -> Formula:
        agents = []
        tok = self.peek()
        if tok is not None and tok.text == ">>":
            self.take()
            raise EmptyCoalition("coalition <<>> is empty", start)
        while True:
            tok = self.take()
            if not tok.text.isdigit():
                raise FormulaSyntaxError(f"expected an agent number, found {tok.text!r}", tok.position)
            if int(tok.text) < 1:
                raise FormulaSyntaxError("agents are numbered from 1", tok.position)
            agents.append(int(tok.text))
            tok = self.take()
            if tok.text == ",":
                continue
            if tok.text == ">>":
                break
            raise FormulaSyntaxError(f"expected ',' or '>>', found {tok.text!r}", tok.position)
        body = self.peek()
        if body is not None and body.text == "X":
            self.take()
            return Next(frozenset(agents), self.unary())
        if body is not None and body.text == "G":
            self.take()
            return Globally(frozenset(agents), self.unary())
        left = self.unary()
        self.expect("U")
        return Until(frozenset(agents), left, self.unary())


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the unique abstract syntax tree."""
    return _Parser(text).parse()


# -- printing ----------------------------------------------------------------


def _agents_text(agents: frozenset[int]) -> str:
    return ",".join(str(a) for a in sorted(agents))


def _conj_text(f: Formula) -> str:
    if isinstance(f, And):
        return f"{_unary_text(f.left)} & {_conj_text(f.right)}"
    return _unary_text(f)


def _unary_text(f: Formula) -> str:
    if isinstance(f, Not):
        return "!" + _unary_text(f.operand)
    return _primary_text(f)


def _primary_text(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, And):
        return f"({_conj_text(f)})"
    if isinstance(f, Next):
        return f"<<{_agents_text(f.agents)}>> X {_unary_text(f.operand)}"
    if isinstance(f, Globally):
        return f"<<{_agents_text(f.agents)}>> G {_unary_text(f.operand)}"
    if isinstance(f, Until):
        return (
            f"<<{_agents_text(f.agents)}>> "
            f"{_unary_text(f.left)} U {_unary_text(f.right)}"
        )
    raise TypeError(f"not a formula: {f!r}")


def render_formula(f: Formula) -> str:
    """Canonical concrete syntax; ``parse_formula`` inverts it exactly."""
    return _conj_text(f)
