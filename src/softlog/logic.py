"""First-order syntax with function symbols: terms, atoms, clauses, their
text, matching, and the ILP problem (examples, background, language).

Everything here is an immutable value that caches its hash, so instances are
usable as dict keys in the hot paths (grounding, memoized proving) and safe
to share across workers: ``__reduce__`` rebuilds a pickled value through its
constructor, which hashes it anew in the loading process.  Terms and atoms
also cache their groundness, computed once at construction, so the variable
walk, substitution and matching pass over ground subterms without looking
inside, and substituting into a ground term or atom returns that same value,
shared.  ``repr`` is their ``to_text`` without list sugar.

Terms cache their nesting depth too, so ``nest_depth``, which enforces
``MAX_TERM_DEPTH``, never recurses.  ``to_text``, ``variables``,
``apply_subst``, ``unify`` and ``canonical`` do, a few frames per level:
each runs only on terms the bound admitted or on a library caller's own term.
"""
from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter, ge, gt, le, lt
from typing import Iterable, Optional, Sequence, Union

# Canonical variable alphabet used for alpha-renaming, and the variable pool
# of the benchmark tasks; overflow names only appear for clauses with more
# than six variables.
CANON_VARS = ("x", "y", "z", "v", "w", "u")
# Variable pool of a language that declares none; problem files list only
# the variables beyond it.
DEFAULT_VARIABLES = CANON_VARS[:5]
_ground = attrgetter("ground")  # all(map(_ground, args)): faster than a generator
_depth = attrgetter("depth")
# Deepest function nesting of a term in a problem or a refinement.  Equality,
# the prover and the grounding recurse up to four frames per level: a term this
# deep goes through a whole ``softlog train`` within the recursion limit of 1000.
MAX_TERM_DEPTH = 200
# The token grammar of names: an identifier can name anything, a literal
# only a constant.  The parser's tokens are built from these patterns.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
LITERAL = r"[0-9]+|\*"
_is_ident, _is_constant, _is_variable = (
    re.compile(p).fullmatch for p in (IDENT, f"{IDENT}|{LITERAL}", f"(?=[a-z]){IDENT}"))


def to_text(e: Expr, sugar: bool = False) -> str:
    """The text of a term, atom or clause, as the parser reads it; ``sugar`` writes
    lists as ``[a,b]``, ``[a|x]`` and ``[]``.  Two frames per nesting level."""
    t = type(e)
    if t is Var or t is Const:
        return "[]" if sugar and e == NIL else e.name
    if t is Clause:
        head = to_text(e.head, sugar)
        body = ", ".join([to_text(b, sugar) for b in e.body])
        return f"{head} :- {body}" if e.body else head
    if t is Atom:
        args = ",".join([to_text(a, sugar) for a in e.args])
        return f"{e.pred}({args})" if e.args else e.pred
    if sugar and e.name == LIST_CELL and len(e.args) == 2:
        elems = []
        while type(e) is Func and e.name == LIST_CELL and len(e.args) == 2:
            elems.append(to_text(e.args[0], True))
            e = e.args[1]
        tail = "" if e == NIL else "|" + to_text(e, True)
        return f"[{','.join(elems)}{tail}]"
    return f"{e.name}({','.join([to_text(a, sugar) for a in e.args])})"


class _Value:
    """Immutable value that caches its hash in ``_hash``.  Pickling and
    copying rebuild it through its constructor from the attributes named in
    ``_fields``, so a value loaded in another process recomputes its hash
    there (string hashes differ between processes).  Each class defines its
    own ``__hash__`` and ``__eq__``: CPython 3.11 specialises an attribute
    read for one type at a time, and one shared method made the beam slower."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    __repr__ = to_text


class Term(_Value):
    """Base class for constants, variables, and compound terms.

    ``ground`` is True when the term contains no variable, and ``depth`` is
    its function-nesting depth.
    """

    __slots__ = ()


class _Symbol(Term):
    """A constant or a variable; ``_tag`` keeps their hashes apart."""

    __slots__ = ("name", "_hash")
    _fields = ("name",)
    depth = 0

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((self._tag, name)))


class Const(_Symbol):
    __slots__ = ()
    ground = True
    _tag = "c"

    def __eq__(self, other):
        return type(other) is Const and other.name == self.name

    def __hash__(self):
        return self._hash


class Var(_Symbol):
    __slots__ = ()
    ground = False
    _tag = "v"

    def __eq__(self, other):
        return type(other) is Var and other.name == self.name

    def __hash__(self):
        return self._hash


class Func(Term):
    """Application of a function symbol to argument terms (arity >= 1)."""

    __slots__ = ("name", "args", "ground", "depth", "_hash")
    _fields = ("name", "args")

    def __init__(self, name: str, args: Iterable[Term]):
        args = tuple(args)
        if not args:
            raise ValueError("function symbols have arity >= 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "ground", all(map(_ground, args)))
        object.__setattr__(self, "depth", 1 + max(map(_depth, args)))
        object.__setattr__(self, "_hash", hash(("f", name, args)))

    def __eq__(self, other):
        return (
            type(other) is Func
            and other._hash == self._hash
            and other.name == self.name
            and other.args == self.args
        )

    def __hash__(self):
        return self._hash


class Atom(_Value):
    """Predicate applied to terms.  ``true``/``false`` are reserved nullary atoms.

    ``ground`` is True when no argument contains a variable.
    """

    __slots__ = ("pred", "args", "ground", "_hash")
    _fields = ("pred", "args")

    def __init__(self, pred: str, args: Iterable[Term] = ()):
        args = tuple(args)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "ground", all(map(_ground, args)))
        object.__setattr__(self, "_hash", hash(("a", pred, args)))

    def __eq__(self, other):
        return (
            type(other) is Atom
            and other._hash == self._hash
            and other.pred == self.pred
            and other.args == self.args
        )

    def __hash__(self):
        return self._hash


TRUE = Atom("true")
FALSE = Atom("false")
RESERVED_PREDS = frozenset({"true", "false"})
# A list is a chain of binary LIST_CELL(head, tail) terms that ends in NIL.
LIST_CELL = "f"
NIL = Const("*")


def list_term(elems: Sequence[Term], tail: Term = NIL) -> Term:
    """The list of ``elems`` followed by ``tail``: one LIST_CELL per element."""
    for e in reversed(elems):
        tail = Func(LIST_CELL, (e, tail))
    return tail


class Clause(_Value):
    """Definite clause ``head :- body``; a fact pattern when the body is empty.

    ``_canon`` holds the clause's canonical form once :func:`canonical` has
    computed it."""

    __slots__ = ("head", "body", "_hash", "_canon")
    _fields = ("head", "body")

    def __init__(self, head: Atom, body: Iterable[Atom] = ()):
        body = tuple(body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(("cl", head, body)))

    def __eq__(self, other):
        return (
            type(other) is Clause
            and other._hash == self._hash
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self):
        return self._hash


Expr = Union[Term, Atom, Clause]
Subst = dict  # Var -> Term


@dataclass(frozen=True)
class Language:
    """Vocabulary: predicates and function symbols with their arities,
    constants, and an ordered finite variable pool.  Construction checks
    every rule of the problem language, so a language that constructs is one
    that a problem file can declare."""

    predicates: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()
    variables: tuple[str, ...] = DEFAULT_VARIABLES

    def __post_init__(self):
        for field in ("predicates", "functions", "constants", "variables"):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        for kind, names, is_name in (
            ("predicate", [p for p, _ in self.predicates], _is_ident),
            ("function symbol", [f for f, _ in self.functions], _is_ident),
            ("constant", self.constants, _is_constant),
            ("variable", self.variables, _is_variable),
        ):
            seen = set()
            for name in names:
                if not (type(name) is str and is_name(name)):
                    raise ValueError(f"bad {kind} name {name!r}")
                if name in seen:
                    raise ValueError(f"duplicate {kind} {name!r}")
                seen.add(name)
        clash = set(self.constants).intersection(self.variables)
        if clash:
            raise ValueError(f"{min(clash)!r} is both a constant and a variable")
        for name, _ in self.predicates:
            if name in RESERVED_PREDS:
                raise ValueError(f"{name!r} is a reserved atom name")
        for kind, entries, least in (
            ("predicates", self.predicates, 0), ("function symbols", self.functions, 1)
        ):
            for name, n in entries:
                if not (type(n) is int and n >= least):
                    raise ValueError(f"{kind} have arity >= {least}, found '{name}/{n}'")

    def pred_arity(self, name: str) -> Optional[int]:
        return next((n for p, n in self.predicates if p == name), None)

    def func_arity(self, name: str) -> Optional[int]:
        return next((n for f, n in self.functions if f == name), None)

    @property
    def has_list_sugar(self) -> bool:
        return self.func_arity(LIST_CELL) == 2 and NIL.name in self.constants


class ProblemError(ValueError):
    """A refused part of a problem: ``index`` in ``group`` (pos, neg, bg or init)."""

    def __init__(self, group: str, index: int, message: str):
        super().__init__(f"{group} {index}: {message}")
        self.group, self.index = group, index


@dataclass(frozen=True)
class ILPProblem:
    """Positive/negative ground examples, background facts, a language, and
    the initial clauses the refinement search grows from.  Construction checks
    every rule on these parts: the grounding gives ``true`` and ``false`` rows
    of their own, so neither is an example, a fact or a clause's head."""

    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]
    background: tuple[Atom, ...]
    language: Language
    initial_clauses: tuple[Clause, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.name and not _is_ident(self.name):
            raise ValueError(f"bad task name {self.name!r}")
        parts = self.pos, self.neg, self.background, self.initial_clauses
        for group, items in zip(("pos", "neg", "bg", "init"), parts):
            for i, e in enumerate(items):
                # the depth first: printing a term past the bound could overflow
                if nest_depth(e) > MAX_TERM_DEPTH:
                    raise ProblemError(group, i, f"terms nest deeper than {MAX_TERM_DEPTH}")
                if type(e) is Atom and not e.ground:
                    text = to_text(e, self.language.has_list_sugar)
                    raise ProblemError(group, i, f"atoms must be ground: {text}")
                head = e.head if type(e) is Clause else e
                if head.pred in RESERVED_PREDS:
                    what = "be an example or a background fact" if head is e else "head a clause"
                    raise ProblemError(group, i, f"{head.pred!r} is reserved and cannot {what}")
        first: dict = {}  # example -> where it first appears, "pos i" or "neg i"
        for group, items in (("pos", self.pos), ("neg", self.neg)):
            for i, a in enumerate(items):
                # a repeat could land on both sides of a split, or carry both labels
                if first.setdefault(a, f"{group} {i}") != f"{group} {i}":
                    text = to_text(a, self.language.has_list_sugar)
                    raise ProblemError(group, i, f"repeats {first[a]}: {text}")

    @property
    def examples(self) -> tuple[Atom, ...]:
        return self.pos + self.neg

    def with_examples(self, pos, neg) -> "ILPProblem":
        return replace(self, pos=tuple(pos), neg=tuple(neg))


# The values a setting admits, by its type: a bool is neither an int nor a
# float here, though Python counts it as both.  isinstance tries the builtin
# type first: an ABC's check is 20 times slower.
_ADMITS = {"int": (int, numbers.Integral), "float": (float, numbers.Real),
           "str": str, "dict": dict, "list": list}
# A setting declares its range, a field in ``field(metadata=...)``: a list of
# ``choices``, or one or two bounds, the lower first, under these keys.  Each
# key holds its test, the symbol it reads as alone and its interval bracket.
_BOUNDS = {"min": (ge, ">=", "["), "above": (gt, ">", "("),
           "max": (le, "<=", "]"), "below": (lt, "<", ")")}
# Ranges that several settings declare.
AT_LEAST_0, AT_LEAST_1 = {"min": 0}, {"min": 1}
FRACTION = {"above": 0, "max": 1}  # a share of a set that keeps some of it


def check_settings(settings, label: str = "") -> None:
    """Run ``check_value`` on each field of the dataclass ``settings`` with
    its annotation, naming it ``Class.field`` or ``label`` formatted with it."""
    for f in fields(settings):
        name = label.format(f.name) if label else f"{type(settings).__name__}.{f.name}"
        check_value(name, getattr(settings, f.name), f.metadata, f.type)


def check_value(name: str, value, declared, kind: str) -> None:
    """Refuse ``value`` unless it is a ``kind`` (``Optional[...]`` admits None
    too) in the range ``declared`` states, as ``<name> must be <type or
    range>, got <value>``, a range read as ``>= 1`` or ``in (0, 1]``."""
    admitted = kind.removeprefix("Optional[").removesuffix("]")
    if value is None and admitted != kind:
        return
    if isinstance(value, bool) or not isinstance(value, _ADMITS[admitted]):
        want = admitted
    elif "choices" in declared:
        if value in declared["choices"]:
            return
        want = " or ".join(map(repr, declared["choices"]))
    else:
        for key, bound in declared.items():
            if not _BOUNDS[key][0](value, bound):
                break
        else:
            return
        (lo, a), *upper = declared.items()
        if upper:
            ((hi, b),) = upper
            want = f"in {_BOUNDS[lo][2]}{a}, {b}{_BOUNDS[hi][2]}"
        else:
            want = f"{_BOUNDS[lo][1]} {a}"
    raise ValueError(f"{name} must be {want}, got {value!r:.40}")


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def variables(e: Expr, acc: Optional[list] = None) -> list[Var]:
    """V(e): the variables of a term, atom or clause in first-occurrence
    order, head first.  Ground subterms are passed over unopened; ``acc``,
    when given, is extended in place and returned."""
    if acc is None:
        acc = []
    if type(e) is Var:
        if e not in acc:
            acc.append(e)
    elif type(e) is Clause:
        variables(e.head, acc)
        for b in e.body:
            variables(b, acc)
    elif not e.ground:
        for a in e.args:
            variables(a, acc)
    return acc


def check_range_restricted(c: Clause) -> None:
    """Raise ValueError unless every body variable of ``c`` occurs in its head,
    so that matching the head against a ground atom grounds the whole body."""
    vs = variables(c)
    loose = vs[len(variables(c.head)):]
    if loose:
        raise ValueError(
            f"clause {c!r} is not range-restricted: "
            f"variable {loose[0]!r} occurs in the body but not in the head"
        )


def nest_depth(e: Expr) -> int:
    """Maximum function-nesting depth of any term in the expression, read
    from the terms' ``depth`` slots."""
    if type(e) is Atom:
        return max(map(_depth, e.args), default=0)
    if type(e) is Clause:
        return max(map(nest_depth, (e.head, *e.body)))
    return e.depth


# ---------------------------------------------------------------------------
# Substitution and matching
# ---------------------------------------------------------------------------

def apply_subst(e: Expr, theta: Subst) -> Expr:
    """Simultaneously replace every bound variable in ``e``.  A ground term
    or atom comes back as the same object."""
    if type(e) is Var:
        return theta.get(e, e)
    if type(e) is Const:
        return e
    if type(e) is Func:
        if e.ground:
            return e
        return Func(e.name, tuple(apply_subst(a, theta) for a in e.args))
    if type(e) is Atom:
        if e.ground:
            return e
        return Atom(e.pred, tuple(apply_subst(t, theta) for t in e.args))
    return Clause(
        apply_subst(e.head, theta),
        tuple(apply_subst(b, theta) for b in e.body),
    )


def _match(p: Term, g: Term, theta: Subst) -> bool:
    """Extend ``theta`` in place so that ``p`` under it equals the ground
    ``g``; False when no substitution does (``theta`` is then partly
    extended).  Every value bound is ground, so a variable met again is
    checked by equality."""
    if type(p) is Var:
        t = theta.setdefault(p, g)
        return t is g or t == g
    if p.ground:
        return p == g
    if type(g) is not Func or g.name != p.name or len(g.args) != len(p.args):
        return False
    for x, y in zip(p.args, g.args):
        if not _match(x, y, theta):
            return False
    return True


def unify(a: Atom, b: Atom) -> Optional[Subst]:
    """One-way matching: the substitution θ with aθ = b, or None when there
    is none.  Raises ValueError unless ``b`` is ground.

    Every head match softlog makes is a clause head against a ground atom
    (the prover's goals and the grounding's atoms), so ``a``'s variables are
    bound in a single pass.
    """
    if not b.ground:
        raise ValueError(f"unify matches against a ground atom, got {b!r}")
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    theta: Subst = {}
    for x, y in zip(a.args, b.args):
        if not _match(x, y, theta):
            return None
    return theta


# ---------------------------------------------------------------------------
# Canonical forms and ordering
# ---------------------------------------------------------------------------

def _canon_name(i: int) -> str:
    if i < len(CANON_VARS):
        return CANON_VARS[i]
    return f"v{i + 1}"


def canonical(c: Clause) -> Clause:
    """Rename variables by first occurrence (head first, left to right).

    Two clauses are alpha-equivalent iff their canonical forms are equal.
    Computed once per clause object and kept on it.
    """
    try:
        return c._canon
    except AttributeError:
        pass
    canon = canonical_in(c, CANON_VARS)
    object.__setattr__(c, "_canon", canon)
    return canon


def canonical_in(c: Clause, names: Iterable[str]) -> Clause:
    """Alpha-rename by first occurrence into the given variable pool, so the
    result stays inside the language the clause was built from."""
    pool = list(names)
    ren = {}
    for i, v in enumerate(variables(c)):
        ren[v] = Var(pool[i]) if i < len(pool) else Var(_canon_name(i))
    return apply_subst(c, ren)
