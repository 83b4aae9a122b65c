"""Textual syntax: terms, atoms, clauses, and whole problem files.

Statements are period-terminated; ``#`` starts a comment.  List sugar
(``[a,b]``, ``[x|y]``, ``[]``) is available whenever the language declares a
binary function symbol ``f`` together with the constant ``*``, and the printer
re-emits it under the same condition so parse/print round-trips.
"""
from __future__ import annotations

import re
from typing import Optional

from .logic import (
    Atom,
    Clause,
    Const,
    Func,
    Language,
    RESERVED_PREDS,
    Term,
    Var,
    check_range_restricted,
    is_ground,
)
from .problem import ILPProblem

DEFAULT_VARIABLES = ("x", "y", "z", "v", "w")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<nl>\n)
  | (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>:-)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<literal>[0-9]+|\*)
  | (?P<punct>[()\[\],.|/])
    """,
    re.VERBOSE,
)
# an ``ident`` can name anything, a ``literal`` only a constant or an arity
_NAME_KINDS = ("ident", "literal")


class _Tokens:
    """The tokens of a text as (value, kind, line, col); parsing reads the
    window from ``i`` up to ``end``."""

    def __init__(self, text: str):
        self.toks: list[tuple[str, str, int, int]] = []
        line, line_start, pos = 1, 0, 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {text[pos]!r}", line, pos - line_start + 1
                )
            if m.lastgroup == "nl":
                line, line_start = line + 1, m.end()
            elif m.lastgroup not in ("ws", "comment"):
                self.toks.append((m.group(), m.lastgroup, line, pos - line_start + 1))
            pos = m.end()
        self.i, self.end = 0, len(self.toks)

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < self.end else None

    def next(self) -> tuple[str, str, int, int]:
        if self.i >= self.end:
            raise self.error("unexpected end of input")
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok: str) -> None:
        val, _, line, col = self.next()
        if val != tok:
            raise ParseError(f"expected {tok!r}, found {val!r}", line, col)

    def error(self, msg: str) -> ParseError:
        """An error at the next token, else at the window's last one."""
        k = min(self.i, self.end - 1)
        return ParseError(msg, *(self.toks[k][2:] if k >= 0 else (1, 1)))


def _items(parse, ts: _Tokens, lang: Language) -> list:
    """One or more comma-separated items."""
    out = [parse(ts, lang)]
    while ts.peek() == ",":
        ts.next()
        out.append(parse(ts, lang))
    return out


def _parse_term(ts: _Tokens, lang: Language) -> Term:
    val, kind, line, col = ts.next()
    if val == "[":
        return _parse_list(ts, lang, line, col)
    if kind not in _NAME_KINDS:
        raise ParseError(f"expected a term, found {val!r}", line, col)
    if ts.peek() == "(":
        arity = lang.func_arity(val)
        if arity is None:
            raise ParseError(f"undeclared function symbol {val!r}", line, col)
        ts.expect("(")
        args = _items(_parse_term, ts, lang)
        ts.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"function {val}/{arity} applied to {len(args)} arguments",
                line,
                col,
            )
        return Func(val, args)
    if lang.is_variable(val):
        return Var(val)
    if lang.is_constant(val):
        return Const(val)
    raise ParseError(f"undeclared symbol {val!r}", line, col)


def _parse_list(ts: _Tokens, lang: Language, line: int, col: int) -> Term:
    if not lang.has_list_sugar:
        raise ParseError(
            "list notation requires function f/2 and constant '*'", line, col
        )
    nil: Term = Const("*")
    if ts.peek() == "]":
        ts.next()
        return nil
    elems = _items(_parse_term, ts, lang)
    tail = nil
    if ts.peek() == "|":
        ts.next()
        tail = _parse_term(ts, lang)
    ts.expect("]")
    for e in reversed(elems):
        tail = Func("f", (e, tail))
    return tail


def _parse_atom(ts: _Tokens, lang: Language) -> Atom:
    val, kind, line, col = ts.next()
    if kind != "ident":
        raise ParseError(f"expected a predicate name, found {val!r}", line, col)
    if val in RESERVED_PREDS:
        if ts.peek() == "(":
            raise ParseError(f"{val!r} is reserved and takes no arguments", line, col)
        return Atom(val)
    arity = lang.pred_arity(val)
    if arity is None:
        raise ParseError(f"undeclared predicate {val!r}", line, col)
    args: list[Term] = []
    if ts.peek() == "(":
        ts.next()
        args = _items(_parse_term, ts, lang)
        ts.expect(")")
    if len(args) != arity:
        raise ParseError(
            f"predicate {val}/{arity} applied to {len(args)} arguments", line, col
        )
    return Atom(val, args)


def _parse_clause(ts: _Tokens, lang: Language) -> Clause:
    """A range-restricted clause with at most one terminating period."""
    start = ts.i
    head = _parse_atom(ts, lang)
    body: list[Atom] = []
    if ts.peek() == ":-":
        ts.next()
        body = _items(_parse_atom, ts, lang)
    if ts.peek() == ".":
        ts.next()
    c = Clause(head, body)
    try:
        check_range_restricted(c)
    except ValueError as e:
        raise ParseError(str(e), *ts.toks[start][2:]) from None
    return c


def _parse_all(parse, what: str, ts: _Tokens, lang: Language):
    """Parse the whole token window."""
    out = parse(ts, lang)
    if ts.peek() is not None:
        raise ts.error(f"trailing input after {what}")
    return out


def parse_term(text: str, lang: Language) -> Term:
    return _parse_all(_parse_term, "term", _Tokens(text), lang)


def parse_atom(text: str, lang: Language) -> Atom:
    return _parse_all(_parse_atom, "atom", _Tokens(text), lang)


def parse_clause(text: str, lang: Language) -> Clause:
    """Parse one clause, with at most one terminating period; it must be
    range-restricted."""
    return _parse_all(_parse_clause, "clause", _Tokens(text), lang)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_term(t: Term, lang: Optional[Language] = None) -> str:
    """Render a term; uses list sugar when the language supports it."""
    if lang is not None and lang.has_list_sugar:
        if t == Const("*"):
            return "[]"
        if type(t) is Func and t.name == "f" and len(t.args) == 2:
            elems = []
            cur: Term = t
            while type(cur) is Func and cur.name == "f" and len(cur.args) == 2:
                elems.append(print_term(cur.args[0], lang))
                cur = cur.args[1]
            if cur == Const("*"):
                return f"[{','.join(elems)}]"
            return f"[{','.join(elems)}|{print_term(cur, lang)}]"
    if type(t) is Func:
        return f"{t.name}({','.join(print_term(a, lang) for a in t.args)})"
    return t.name  # type: ignore[union-attr]


def print_atom(a: Atom, lang: Optional[Language] = None) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(print_term(t, lang) for t in a.args)})"


def print_clause(c: Clause, lang: Optional[Language] = None) -> str:
    if not c.body:
        return print_atom(c.head, lang)
    body = ", ".join(print_atom(b, lang) for b in c.body)
    return f"{print_atom(c.head, lang)} :- {body}"


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def parse_problem(text: str) -> ILPProblem:
    """Parse a problem file into an ILPProblem (declarations may appear in any
    order but must precede their first use)."""
    ts = _Tokens(text)
    toks = ts.toks
    statements, lo = [], 0
    for hi, tok in enumerate(toks):
        if tok[0] == ".":
            if hi > lo:
                statements.append((lo, hi))
            lo = hi + 1
    if lo < len(toks):
        raise ParseError("statement missing terminating '.'", *toks[lo][2:])

    preds: list[tuple[str, int]] = []
    funcs: list[tuple[str, int]] = []
    consts: list[str] = []
    variables = list(DEFAULT_VARIABLES)
    windows = {kw: [] for kw in ("init", "bg", "pos", "neg")}  # body token spans
    task = ""
    for lo, hi in statements:
        kw, _, line, col = toks[lo]
        body = toks[lo + 1 : hi]
        vals, kinds = [t[0] for t in body], [t[1] for t in body]
        name = "".join(vals)
        at = body[0][2:] if body else (line, col)
        if kw in windows:
            windows[kw].append((lo + 1, hi))
        elif kw == "task":
            if task:
                raise ParseError("duplicate task statement", line, col)
            if kinds != ["ident"]:
                raise ParseError(f"bad task name {name!r}", *at)
            task = name
        elif kw in ("pred", "func"):
            if not (len(vals) == 3 and kinds[0] == "ident" and vals[1] == "/"
                    and vals[2].isdigit()):
                raise ParseError(f"expected name/arity, found {name!r}", *at)
            if kw == "pred" and vals[0] in RESERVED_PREDS:
                raise ParseError(f"{vals[0]!r} is a reserved atom name", *at)
            (preds if kw == "pred" else funcs).append((vals[0], int(vals[2])))
        elif kw == "const":
            if len(kinds) != 1 or kinds[0] not in _NAME_KINDS:
                raise ParseError(f"bad constant name {name!r}", *at)
            if name in variables:
                raise ParseError(
                    f"{name!r} is a variable name and cannot be a constant", *at
                )
            consts.append(name)
        elif kw == "var":
            if kinds != ["ident"] or not "a" <= name[0] <= "z":
                raise ParseError(f"bad variable name {name!r}", *at)
            if name not in variables:
                variables.append(name)
        else:
            raise ParseError(f"unknown statement {kw!r}", line, col)

    lang = Language(preds, funcs, consts, variables)

    def parsed(kw: str) -> tuple:
        out = []
        for lo, hi in windows[kw]:
            ts.i, ts.end = lo, hi
            if kw == "init":
                out.append(_parse_all(_parse_clause, "clause", ts, lang))
                continue
            a = _parse_all(_parse_atom, "atom", ts, lang)
            if not is_ground(a):
                raise ParseError(
                    f"{kw} atoms must be ground: {print_atom(a, lang)}", *toks[lo][2:]
                )
            out.append(a)
        return tuple(out)

    return ILPProblem(
        pos=parsed("pos"),
        neg=parsed("neg"),
        background=parsed("bg"),
        language=lang,
        initial_clauses=parsed("init"),
        name=task,
    )


def problem_to_text(problem: ILPProblem) -> str:
    """Serialize a problem; load(save(p)) round-trips."""
    lang = problem.language
    lines = [f"task {problem.name}."] if problem.name else []
    for p, n in lang.predicates:
        lines.append(f"pred {p}/{n}.")
    for f, n in lang.functions:
        lines.append(f"func {f}/{n}.")
    if lang.constants:
        lines.append(" ".join(f"const {c}." for c in lang.constants))
    for v in lang.variables:
        if v not in DEFAULT_VARIABLES:
            lines.append(f"var {v}.")
    for c in problem.initial_clauses:
        lines.append(f"init {print_clause(c, lang)}.")
    for a in problem.background:
        lines.append(f"bg {print_atom(a, lang)}.")
    for a in problem.pos:
        lines.append(f"pos {print_atom(a, lang)}.")
    for a in problem.neg:
        lines.append(f"neg {print_atom(a, lang)}.")
    return "\n".join(lines) + "\n"
