"""A small Datalog/Prolog-style parser for rules, facts, and queries.

Grammar (informally)::

    program  := clause*
    clause   := atom '.'                      (fact)
              | atom ':-' literals '.'       (rule)
    literals := literal (',' literal)*
    literal  := '\\+' atom | atom | comparison
    atom     := NAME '(' term (',' term)* ')' | NAME
    term     := VARIABLE | NAME | NUMBER | STRING
    comparison := term OP term                (OP in <, >, =<, >=, =, \\=)

Names starting with a lowercase letter are constants/predicate symbols;
names starting with an uppercase letter or ``_`` are variables.  Comparison
literals become atoms whose predicate is the operator symbol, which the
evaluable-builtin registry (:mod:`repro.logic.builtins`) knows how to run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import ParseError
from repro.logic.terms import Atom, Const, Term, Var

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>       \s+ | \%[^\n]* )
  | (?P<ARROW>    :- )
  | (?P<NAF>      \\\+ )
  | (?P<OP>       =<|>=|\\=|!=|<|>|= )
  | (?P<NUMBER>   -?\d+\.\d+ | -?\d+ )
  | (?P<STRING>   '(?:[^'\\]|\\.)*' | "(?:[^"\\]|\\.)*" )
  | (?P<NAME>     [a-z][A-Za-z0-9_]* )
  | (?P<VARIABLE> [A-Z_][A-Za-z0-9_]* )
  | (?P<PUNCT>    [(),.] )
    """,
    re.VERBOSE,
)

#: Comparison operators normalized to a canonical predicate symbol.
_CANONICAL_OP = {"=<": "=<", ">=": ">=", "<": "<", ">": ">", "=": "=", "\\=": "\\=", "!=": "\\="}


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token: kind, text, and source offset."""
    kind: str
    text: str
    position: int


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens; raises :class:`ParseError` on unrecognized input."""
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError("unrecognized character", text=text, position=position)
        kind = match.lastgroup
        assert kind is not None
        if kind != "WS":
            yield Token(kind, match.group(), position)
        position = match.end()


@dataclass(frozen=True, slots=True)
class Clause:
    """A parsed clause: a fact (empty body) or a rule."""

    head: Atom
    body: tuple[Atom, ...] = ()

    @property
    def is_fact(self) -> bool:
        """True when the clause has no body."""
        return not self.body

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} :- {body}."


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = list(tokenize(text))
        self._index = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", text=self._text, position=len(self._text))
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}",
                text=self._text,
                position=token.position,
            )
        return token

    def _at(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        return token is not None and token.kind == kind and (text is None or token.text == text)

    # -- grammar --------------------------------------------------------------
    def parse_program(self) -> list[Clause]:
        clauses = []
        while self._peek() is not None:
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self) -> Clause:
        head = self.parse_atom()
        if self._at("PUNCT", "."):
            self._next()
            return Clause(head)
        self._expect("ARROW")
        body = [self.parse_literal()]
        while self._at("PUNCT", ","):
            self._next()
            body.append(self.parse_literal())
        self._expect("PUNCT", ".")
        return Clause(head, tuple(body))

    def parse_literal(self) -> Atom:
        if self._at("NAF"):
            self._next()
            atom = self.parse_atom()
            return Atom(atom.pred, atom.args, negated=True)
        # Could be an atom, or a comparison starting with a term.
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", text=self._text, position=len(self._text))
        if token.kind == "NAME":
            after = self._tokens[self._index + 1] if self._index + 1 < len(self._tokens) else None
            if after is not None and after.kind == "OP":
                return self._parse_comparison()
            return self.parse_atom()
        return self._parse_comparison()

    def _parse_comparison(self) -> Atom:
        left = self.parse_term()
        op_token = self._expect("OP")
        right = self.parse_term()
        return Atom(_CANONICAL_OP[op_token.text], (left, right))

    def parse_atom(self) -> Atom:
        name = self._expect("NAME").text
        if not self._at("PUNCT", "("):
            return Atom(name, ())
        self._next()
        args = [self.parse_term()]
        while self._at("PUNCT", ","):
            self._next()
            args.append(self.parse_term())
        self._expect("PUNCT", ")")
        return Atom(name, tuple(args))

    def parse_term(self) -> Term:
        token = self._next()
        if token.kind == "VARIABLE":
            return Var(token.text)
        if token.kind == "NAME":
            return Const(token.text)
        if token.kind == "NUMBER":
            text = token.text
            return Const(float(text) if "." in text else int(text))
        if token.kind == "STRING":
            raw = token.text[1:-1]
            return Const(raw.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\"))
        raise ParseError(
            f"expected a term, found {token.text!r}",
            text=self._text,
            position=token.position,
        )

    def at_end(self) -> bool:
        return self._peek() is None


def parse_program(text: str) -> list[Clause]:
    """Parse a whole program (facts and rules terminated by ``.``)."""
    return _Parser(text).parse_program()


def parse_clause(text: str) -> Clause:
    """Parse exactly one clause."""
    parser = _Parser(text)
    clause = parser.parse_clause()
    if not parser.at_end():
        raise ParseError("trailing input after clause", text=text)
    return clause


def parse_atom(text: str) -> Atom:
    """Parse a single atom (no trailing period), e.g. an AI query."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    if parser._at("PUNCT", "."):
        parser._next()
    if not parser.at_end():
        raise ParseError("trailing input after atom", text=text)
    return atom
