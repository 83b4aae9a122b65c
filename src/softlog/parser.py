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


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, int, int]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            val = m.group()
            if kind not in ("ws", "comment"):
                self.toks.append((val, line, col))
            nl = val.count("\n")
            if nl:
                line += nl
                col = len(val) - val.rfind("\n")
            else:
                col += len(val)
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, int, int]:
        if self.i >= len(self.toks):
            last = self.toks[-1] if self.toks else ("", 1, 1)
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
            line, col = 1, 1
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
    head = _parse_atom(ts, lang)
    body: list[Atom] = []
    if ts.peek() == ":-":
        ts.next()
        body.append(_parse_atom(ts, lang))
        while ts.peek() == ",":
            ts.next()
            body.append(_parse_atom(ts, lang))
    return Clause(head, body)


def parse_term(text: str, lang: Language) -> Term:
    ts = _Tokens(text)
    t = _parse_term(ts, lang)
    if ts.peek() is not None:
        raise ts.error("trailing input after term")
    return t


def parse_atom(text: str, lang: Language) -> Atom:
    ts = _Tokens(text)
    a = _parse_atom(ts, lang)
    if ts.peek() is not None:
        raise ts.error("trailing input after atom")
    return a


def parse_clause(text: str, lang: Language) -> Clause:
    """Parse one clause; it must be range-restricted."""
    ts = _Tokens(text.rstrip().rstrip(".")) if text.rstrip().endswith(".") else _Tokens(text)
    c = _parse_clause(ts, lang)
    if ts.peek() is not None:
        raise ts.error("trailing input after clause")
    try:
        check_range_restricted(c)
    except ValueError as e:
        _, line, col = ts.toks[0]
        raise ParseError(str(e), line, col) from None
    return c


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


def print_term_compact(t: Term) -> str:
    """Render naturals s(s(...(0))) as s^n(0); display only, not parseable."""
    n = 0
    cur = t
    while type(cur) is Func and cur.name == "s" and len(cur.args) == 1:
        n += 1
        cur = cur.args[0]
    if n > 1 and cur == Const("0"):
        return f"s^{n}(0)"
    return print_term(cur if n == 0 else t, None)


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

def _split_statements(text: str) -> list[tuple[str, int]]:
    """Split into period-terminated statements, tracking starting lines."""
    out = []
    buf: list[str] = []
    start_line = 1
    line = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
        if ch == ".":
            stmt = "".join(buf).strip()
            if stmt:
                out.append((stmt, start_line))
            buf = []
        elif buf or not ch.isspace():
            if not buf:
                start_line = line
            buf.append(ch)
        i += 1
    tail = "".join(buf).strip()
    if tail:
        raise ParseError("statement missing terminating '.'", line, 1)
    return out


def parse_problem(text: str):
    """Parse a problem file into an ILPProblem (declarations may appear in any
    order but must precede their first use)."""
    from .problem import ILPProblem

    preds: list[tuple[str, int]] = []
    funcs: list[tuple[str, int]] = []
    consts: list[str] = []
    variables = list(DEFAULT_VARIABLES)
    initial: list[tuple[str, int]] = []
    bg: list[tuple[str, int]] = []
    pos: list[tuple[str, int]] = []
    neg: list[tuple[str, int]] = []
    task = ""

    def name_arity(rest: str, line: int) -> tuple[str, int]:
        m = re.fullmatch(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*/\s*([0-9]+)\s*", rest)
        if m is None:
            raise ParseError(f"expected name/arity, found {rest!r}", line, 1)
        return m.group(1), int(m.group(2))

    for stmt, line in _split_statements(text):
        kw, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if kw == "task":
            if task:
                raise ParseError("duplicate task statement", line, 1)
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", rest):
                raise ParseError(f"bad task name {rest!r}", line, 1)
            task = rest
        elif kw == "pred":
            name, ar = name_arity(rest, line)
            if name in RESERVED_PREDS:
                raise ParseError(f"{name!r} is a reserved atom name", line, 1)
            preds.append((name, ar))
        elif kw == "func":
            funcs.append(name_arity(rest, line))
        elif kw == "const":
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\*", rest):
                raise ParseError(f"bad constant name {rest!r}", line, 1)
            if rest in variables:
                raise ParseError(
                    f"{rest!r} is a variable name and cannot be a constant", line, 1
                )
            consts.append(rest)
        elif kw == "var":
            if not re.fullmatch(r"[a-z][A-Za-z0-9_]*", rest):
                raise ParseError(f"bad variable name {rest!r}", line, 1)
            if rest not in variables:
                variables.append(rest)
        elif kw in ("init", "bg", "pos", "neg"):
            {"init": initial, "bg": bg, "pos": pos, "neg": neg}[kw].append((rest, line))
        else:
            raise ParseError(f"unknown statement {stmt!r}", line, 1)

    lang = Language(preds, funcs, consts, variables)

    def at(parse, src: str, line: int):
        """Parse one statement body, reporting errors at the statement's line."""
        try:
            return parse(src, lang)
        except ParseError as e:
            raise ParseError(e.args[0].split(": ", 1)[-1], line, e.col) from None

    def ground_atom_at(src: str, line: int, role: str) -> Atom:
        a = at(parse_atom, src, line)
        if not is_ground(a):
            raise ParseError(f"{role} atoms must be ground: {src}", line, 1)
        return a

    return ILPProblem(
        pos=tuple(ground_atom_at(s, ln, "pos") for s, ln in pos),
        neg=tuple(ground_atom_at(s, ln, "neg") for s, ln in neg),
        background=tuple(ground_atom_at(s, ln, "bg") for s, ln in bg),
        language=lang,
        initial_clauses=tuple(at(parse_clause, s, ln) for s, ln in initial),
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
