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

DEFAULT_VARIABLES = ("x", "y", "z", "v", "w")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>:-)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\*)
  | (?P<punct>[()\[\],.|/])
    """,
    re.VERBOSE,
)


def _advance(line: int, col: int, text: str) -> tuple[int, int]:
    """The position just after ``text`` when it starts at (line, col)."""
    nl = text.count("\n")
    return (line + nl, len(text) - text.rfind("\n")) if nl else (line, col + len(text))


class _Tokens:
    """Tokens with their positions; ``text`` starts at (line, col)."""

    def __init__(self, text: str, line: int = 1, col: int = 1):
        self.toks: list[tuple[str, int, int]] = []
        self.start = (line, col)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            val = m.group()
            if m.lastgroup not in ("ws", "comment"):
                self.toks.append((val, line, col))
            line, col = _advance(line, col, val)
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, int, int]:
        if self.i >= len(self.toks):
            last = self.toks[-1] if self.toks else ("", *self.start)
            raise ParseError("unexpected end of input", last[1], last[2])
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok: str) -> None:
        val, line, col = self.next()
        if val != tok:
            raise ParseError(f"expected {tok!r}, found {val!r}", line, col)

    def error(self, msg: str) -> ParseError:
        if self.i < len(self.toks):
            _, line, col = self.toks[self.i]
        elif self.toks:
            _, line, col = self.toks[-1]
        else:
            line, col = self.start
        return ParseError(msg, line, col)


def _parse_term(ts: _Tokens, lang: Language) -> Term:
    val, line, col = ts.next()
    if val == "[":
        return _parse_list(ts, lang, line, col)
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\*", val):
        raise ParseError(f"expected a term, found {val!r}", line, col)
    if ts.peek() == "(":
        arity = lang.func_arity(val)
        if arity is None:
            raise ParseError(f"undeclared function symbol {val!r}", line, col)
        ts.expect("(")
        args = [_parse_term(ts, lang)]
        while ts.peek() == ",":
            ts.next()
            args.append(_parse_term(ts, lang))
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
    elems = [_parse_term(ts, lang)]
    while ts.peek() == ",":
        ts.next()
        elems.append(_parse_term(ts, lang))
    tail = nil
    if ts.peek() == "|":
        ts.next()
        tail = _parse_term(ts, lang)
    ts.expect("]")
    for e in reversed(elems):
        tail = Func("f", (e, tail))
    return tail


def _parse_atom(ts: _Tokens, lang: Language) -> Atom:
    val, line, col = ts.next()
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", val):
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
        args.append(_parse_term(ts, lang))
        while ts.peek() == ",":
            ts.next()
            args.append(_parse_term(ts, lang))
        ts.expect(")")
    if len(args) != arity:
        raise ParseError(
            f"predicate {val}/{arity} applied to {len(args)} arguments", line, col
        )
    return Atom(val, args)


def _parse_clause(ts: _Tokens, lang: Language) -> Clause:
    """A range-restricted clause with at most one terminating period."""
    head = _parse_atom(ts, lang)
    body: list[Atom] = []
    if ts.peek() == ":-":
        ts.next()
        body.append(_parse_atom(ts, lang))
        while ts.peek() == ",":
            ts.next()
            body.append(_parse_atom(ts, lang))
    if ts.peek() == ".":
        ts.next()
    c = Clause(head, body)
    try:
        check_range_restricted(c)
    except ValueError as e:
        raise ParseError(str(e), *ts.toks[0][1:]) from None
    return c


def _parse_all(parse, what: str, text: str, lang: Language, line=1, col=1):
    """Parse all of ``text``, which starts at (line, col) of its file."""
    ts = _Tokens(text, line, col)
    out = parse(ts, lang)
    if ts.peek() is not None:
        raise ts.error(f"trailing input after {what}")
    return out


def parse_term(text: str, lang: Language) -> Term:
    return _parse_all(_parse_term, "term", text, lang)


def parse_atom(text: str, lang: Language) -> Atom:
    return _parse_all(_parse_atom, "atom", text, lang)


def parse_clause(text: str, lang: Language) -> Clause:
    """Parse one clause, with at most one terminating period; it must be
    range-restricted."""
    return _parse_all(_parse_clause, "clause", text, lang)


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

def _split_statements(text: str) -> list[tuple[str, int, int]]:
    """Split into period-terminated statements, each with the line and column
    of its first character.  Comments are dropped; each runs to the end of
    its line, so no later position moves."""
    out = []
    buf: list[str] = []
    line, col = 1, 1
    start = (1, 1)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == ".":
            stmt = "".join(buf).rstrip()
            if stmt:
                out.append((stmt, *start))
            buf = []
        elif buf or not ch.isspace():
            if not buf:
                start = (line, col)
            buf.append(ch)
        line, col = _advance(line, col, ch)
        i += 1
    if "".join(buf).strip():
        raise ParseError("statement missing terminating '.'", *start)
    return out


def parse_problem(text: str):
    """Parse a problem file into an ILPProblem (declarations may appear in any
    order but must precede their first use)."""
    from .problem import ILPProblem

    preds: list[tuple[str, int]] = []
    funcs: list[tuple[str, int]] = []
    consts: list[str] = []
    variables = list(DEFAULT_VARIABLES)
    initial: list[tuple[str, int, int]] = []
    bg: list[tuple[str, int, int]] = []
    pos: list[tuple[str, int, int]] = []
    neg: list[tuple[str, int, int]] = []
    task = ""

    def name_arity(rest: str, at: tuple[int, int]) -> tuple[str, int]:
        m = re.fullmatch(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*/\s*([0-9]+)\s*", rest)
        if m is None:
            raise ParseError(f"expected name/arity, found {rest!r}", *at)
        return m.group(1), int(m.group(2))

    for stmt, line, col in _split_statements(text):
        kw, _, rest = stmt.partition(" ")
        rest = rest.lstrip()
        # file position of the statement body
        at = _advance(line, col, stmt[: len(stmt) - len(rest)])
        if kw == "task":
            if task:
                raise ParseError("duplicate task statement", line, col)
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", rest):
                raise ParseError(f"bad task name {rest!r}", *at)
            task = rest
        elif kw == "pred":
            name, ar = name_arity(rest, at)
            if name in RESERVED_PREDS:
                raise ParseError(f"{name!r} is a reserved atom name", *at)
            preds.append((name, ar))
        elif kw == "func":
            funcs.append(name_arity(rest, at))
        elif kw == "const":
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\*", rest):
                raise ParseError(f"bad constant name {rest!r}", *at)
            if rest in variables:
                raise ParseError(
                    f"{rest!r} is a variable name and cannot be a constant", *at
                )
            consts.append(rest)
        elif kw == "var":
            if not re.fullmatch(r"[a-z][A-Za-z0-9_]*", rest):
                raise ParseError(f"bad variable name {rest!r}", *at)
            if rest not in variables:
                variables.append(rest)
        elif kw in ("init", "bg", "pos", "neg"):
            {"init": initial, "bg": bg, "pos": pos, "neg": neg}[kw].append((rest, *at))
        else:
            raise ParseError(f"unknown statement {stmt!r}", line, col)

    lang = Language(preds, funcs, consts, variables)

    def ground_atom_at(src: str, line: int, col: int, role: str) -> Atom:
        a = _parse_all(_parse_atom, "atom", src, lang, line, col)
        if not is_ground(a):
            raise ParseError(f"{role} atoms must be ground: {src}", line, col)
        return a

    return ILPProblem(
        pos=tuple(ground_atom_at(*s, "pos") for s in pos),
        neg=tuple(ground_atom_at(*s, "neg") for s in neg),
        background=tuple(ground_atom_at(*s, "bg") for s in bg),
        language=lang,
        initial_clauses=tuple(
            _parse_all(_parse_clause, "clause", s, lang, ln, c) for s, ln, c in initial
        ),
        name=task,
    )


def problem_to_text(problem) -> str:
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
