"""Parsing terms, atoms, clauses, and reading and writing whole problem files.

Statements are period-terminated; ``#`` starts a comment.  List sugar
(``[a,b]``, ``[x|y]``, ``[]``) is available whenever the language declares the
list cell ``LIST_CELL``/2 and the constant ``NIL``; the printers re-emit it under
the same condition (``logic.to_text``), so parse/print round-trips.
"""
from __future__ import annotations

import re
from typing import Optional

from .logic import (
    Atom,
    Clause,
    Const,
    DEFAULT_VARIABLES,
    Expr,
    Func,
    IDENT,
    ILPProblem,
    LIST_CELL,
    LITERAL,
    Language,
    MAX_TERM_DEPTH,
    NIL,
    ProblemError,
    RESERVED_PREDS,
    Term,
    Var,
    check_range_restricted,
    list_term,
    to_text,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    rf"""
    (?P<nl>\n)
  | (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>:-)
  | (?P<ident>{IDENT})
  | (?P<literal>{LITERAL})
  | (?P<punct>[()\[\],.|/])
    """,
    re.VERBOSE,
)


class _Tokens:
    """The tokens of a text as (value, kind, line, col); parsing reads the
    window from ``i`` up to ``end``, and ``depth`` counts the function
    applications open around the term being read."""

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
        self.i, self.end, self.depth = 0, len(self.toks), 0

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


def _open(ts: _Tokens, line: int, col: int) -> None:
    """Enter one more function application, at the term starting at
    (line, col); the count bounds the parser's own recursion."""
    ts.depth += 1
    if ts.depth > MAX_TERM_DEPTH:
        raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} functions", line, col)


def _parse_term(ts: _Tokens, lang: Language) -> Term:
    val, kind, line, col = ts.next()
    if val == "[":
        return _parse_list(ts, lang, line, col)
    if kind not in ("ident", "literal"):
        raise ParseError(f"expected a term, found {val!r}", line, col)
    if ts.peek() == "(":
        arity = lang.func_arity(val)
        if arity is None:
            raise ParseError(f"undeclared function symbol {val!r}", line, col)
        ts.expect("(")
        _open(ts, line, col)
        args = _items(_parse_term, ts, lang)
        ts.depth -= 1
        ts.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"function {val}/{arity} applied to {len(args)} arguments",
                line,
                col,
            )
        return Func(val, args)
    if val in lang.variables:
        return Var(val)
    if val in lang.constants:
        return Const(val)
    raise ParseError(f"undeclared symbol {val!r}", line, col)


def _parse_list(ts: _Tokens, lang: Language, line: int, col: int) -> Term:
    if not lang.has_list_sugar:
        msg = f"list notation requires function {LIST_CELL}/2 and constant '{NIL}'"
        raise ParseError(msg, line, col)
    if ts.peek() == "]":
        ts.next()
        return NIL
    depth = ts.depth

    def element(ts: _Tokens, lang: Language) -> Term:
        # the k-th element sits inside k cells f(e, rest), the tail inside all
        _open(ts, line, col)
        return _parse_term(ts, lang)

    elems = _items(element, ts, lang)
    tail: Term = NIL
    if ts.peek() == "|":
        ts.next()
        tail = _parse_term(ts, lang)
    ts.depth = depth
    ts.expect("]")
    return list_term(elems, tail)


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

def print_term(e: Expr, lang: Optional[Language] = None) -> str:
    """Render a term, atom or clause; uses list sugar when the language
    supports it."""
    return to_text(e, lang is not None and lang.has_list_sugar)


print_atom = print_clause = print_term


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def parse_problem(text: str) -> ILPProblem:
    """Parse a problem file into an ILPProblem.  Declarations may appear
    anywhere in the file: all of them are read before any clause or atom."""
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

    decls = {"pred": [], "func": [], "const": [], "var": list(DEFAULT_VARIABLES)}
    lang = Language()
    windows = {kw: [] for kw in ("init", "bg", "pos", "neg")}  # body token spans
    task, task_at = "", None
    for lo, hi in statements:
        kw, _, line, col = toks[lo]
        body = toks[lo + 1 : hi]
        vals = [t[0] for t in body]
        name = " ".join(vals)
        at = body[0][2:] if body else (line, col)
        if kw in windows:
            windows[kw].append((lo + 1, hi))
        elif kw in ("pred", "func"):
            if not (len(vals) == 3 and vals[1] == "/" and vals[2].isdigit()):
                raise ParseError(f"expected name/arity, found {name!r}", *at)
            decls[kw].append((vals[0], int(vals[2])))
        elif kw not in ("const", "var", "task"):
            raise ParseError(f"unknown statement {kw!r}", line, col)
        elif not vals or (len(vals) > 1 and kw != "task"):  # ILPProblem checks a task name
            raise ParseError(f"expected one name, found {name!r}", *at)
        elif kw == "task":
            if task_at:
                raise ParseError("duplicate task statement", line, col)
            task, task_at = name, at
        elif not (kw == "var" and name in decls["var"]):  # else in the pool
            decls[kw].append(name)
        if kw in decls:  # declared through Language, which owns the rules
            try:
                lang = Language(*decls.values())
            except ValueError as e:
                raise ParseError(str(e), *at) from None

    def parsed(kw: str) -> tuple:
        parse, what = (_parse_clause, "clause") if kw == "init" else (_parse_atom, "atom")
        out = []
        for lo, hi in windows[kw]:
            ts.i, ts.end = lo, hi
            out.append(_parse_all(parse, what, ts, lang))
        return tuple(out)

    pos, neg, bg, init = map(parsed, ("pos", "neg", "bg", "init"))
    try:
        return ILPProblem(pos, neg, bg, lang, init, task)
    except ProblemError as e:  # at the statement of the refused part
        raise ParseError(str(e), *toks[windows[e.group][e.index][0]][2:]) from None
    except ValueError as e:  # the task name
        raise ParseError(str(e), *task_at) from None


def problem_to_text(problem: ILPProblem) -> str:
    """Serialize a problem.  A file's variable pool is ``DEFAULT_VARIABLES``
    and the names it declares after them, so parse(print(p)) == p whenever
    ``p``'s pool starts with ``DEFAULT_VARIABLES``."""
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
