"""First-order syntax with function symbols: terms, atoms, clauses, matching.

Everything here is an immutable value that caches its hash, so instances are
usable as dict keys in the hot paths (grounding, memoized proving) and safe
to share across workers: ``__reduce__`` rebuilds a pickled value through its
constructor, which hashes it anew in the loading process.  Terms also cache
their groundness: a compound term computes it once at construction, so
substitution and matching pass over ground subterms without looking inside,
and substituting into a ground term returns that same term, shared.
"""
from __future__ import annotations

from typing import Iterable, Optional, Union

# Canonical variable alphabet used for alpha-renaming, and the variable pool
# of the benchmark tasks; overflow names only appear for clauses with more
# than six variables.
CANON_VARS = ("x", "y", "z", "v", "w", "u")
# Variable pool of a language that declares none; problem files list only
# the variables beyond it.
DEFAULT_VARIABLES = CANON_VARS[:5]


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


class Term(_Value):
    """Base class for constants, variables, and compound terms.

    ``ground`` is True when the term contains no variable.
    """

    __slots__ = ()


class _Symbol(Term):
    """A constant or a variable; ``_tag`` keeps their hashes apart."""

    __slots__ = ("name", "_hash")
    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((self._tag, name)))

    def __repr__(self):
        return self.name


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

    __slots__ = ("name", "args", "ground", "_hash")
    _fields = ("name", "args")

    def __init__(self, name: str, args: Iterable[Term]):
        args = tuple(args)
        if not args:
            raise ValueError("function symbols have arity >= 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "ground", all(a.ground for a in args))
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

    def __repr__(self):
        return f"{self.name}({','.join(map(repr, self.args))})"


class Atom(_Value):
    """Predicate applied to terms.  ``true``/``false`` are reserved nullary atoms."""

    __slots__ = ("pred", "args", "_hash")
    _fields = ("pred", "args")

    def __init__(self, pred: str, args: Iterable[Term] = ()):
        args = tuple(args)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
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

    def __repr__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(map(repr, self.args))})"


TRUE = Atom("true")
FALSE = Atom("false")
RESERVED_PREDS = frozenset({"true", "false"})


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

    def __repr__(self):
        if not self.body:
            return repr(self.head)
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}"


Expr = Union[Term, Atom, Clause]
Subst = dict  # Var -> Term


class Language:
    """Vocabulary: predicates, function symbols, constants, and an ordered
    finite variable pool."""

    __slots__ = ("predicates", "functions", "constants", "variables")

    def __init__(
        self,
        predicates: Iterable[tuple[str, int]] = (),
        functions: Iterable[tuple[str, int]] = (),
        constants: Iterable[str] = (),
        variables: Iterable[str] = DEFAULT_VARIABLES,
    ):
        self.predicates = tuple(predicates)
        self.functions = tuple(functions)
        self.constants = tuple(constants)
        self.variables = tuple(variables)
        for cat, names in (
            ("predicate", [p for p, _ in self.predicates]),
            ("function", [f for f, _ in self.functions]),
            ("constant", list(self.constants)),
            ("variable", list(self.variables)),
        ):
            if len(names) != len(set(names)):
                raise ValueError(f"duplicate {cat} names")
        bad = RESERVED_PREDS & {p for p, _ in self.predicates}
        if bad:
            raise ValueError(f"reserved predicate names: {sorted(bad)}")

    def pred_arity(self, name: str) -> Optional[int]:
        for p, n in self.predicates:
            if p == name:
                return n
        return None

    def func_arity(self, name: str) -> Optional[int]:
        for f, n in self.functions:
            if f == name:
                return n
        return None

    @property
    def has_list_sugar(self) -> bool:
        return self.func_arity("f") == 2 and "*" in self.constants

    def __repr__(self):
        return (
            f"Language(preds={self.predicates}, funcs={self.functions}, "
            f"consts={self.constants}, vars={self.variables})"
        )


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def term_vars(t: Term, acc: Optional[list] = None) -> list[Var]:
    """Variables of a term in first-occurrence order."""
    if acc is None:
        acc = []
    if type(t) is Var:
        if t not in acc:
            acc.append(t)
    elif type(t) is Func:
        for a in t.args:
            term_vars(a, acc)
    return acc


def atom_vars(a: Atom, acc: Optional[list] = None) -> list[Var]:
    if acc is None:
        acc = []
    for t in a.args:
        term_vars(t, acc)
    return acc


def clause_vars(c: Clause) -> list[Var]:
    """V(C) in first-occurrence order, head first."""
    acc: list[Var] = []
    atom_vars(c.head, acc)
    for b in c.body:
        atom_vars(b, acc)
    return acc


def check_range_restricted(c: Clause) -> None:
    """Raise ValueError unless every body variable of ``c`` occurs in its head,
    so that matching the head against a ground atom grounds the whole body."""
    head = atom_vars(c.head)
    loose = next((v for v in clause_vars(c) if v not in head), None)
    if loose is not None:
        raise ValueError(
            f"clause {c!r} is not range-restricted: "
            f"variable {loose!r} occurs in the body but not in the head"
        )


def is_ground(a: Atom) -> bool:
    return all(t.ground for t in a.args)


def nest_depth_term(t: Term) -> int:
    if type(t) is Func:
        return 1 + max(nest_depth_term(a) for a in t.args)
    return 0


def nest_depth(e: Expr) -> int:
    """Maximum function-nesting depth of any term in the expression."""
    if isinstance(e, Term):
        return nest_depth_term(e)
    if isinstance(e, Atom):
        return max((nest_depth_term(t) for t in e.args), default=0)
    d = nest_depth(e.head)
    for b in e.body:
        d = max(d, nest_depth(b))
    return d


# ---------------------------------------------------------------------------
# Substitution and matching
# ---------------------------------------------------------------------------

def apply_subst(e: Expr, theta: Subst) -> Expr:
    """Simultaneously replace every bound variable in ``e``.  A ground term
    comes back as the same object."""
    if type(e) is Var:
        return theta.get(e, e)
    if type(e) is Const:
        return e
    if type(e) is Func:
        if e.ground:
            return e
        return Func(e.name, tuple(apply_subst(a, theta) for a in e.args))
    if type(e) is Atom:
        if not e.args:
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
    for y in b.args:
        if not y.ground:
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


def canonical_in(c: Clause, variables: Iterable[str]) -> Clause:
    """Alpha-rename by first occurrence into the given variable pool, so the
    result stays inside the language the clause was built from."""
    pool = list(variables)
    vs = clause_vars(c)
    ren = {}
    for i, v in enumerate(vs):
        ren[v] = Var(pool[i]) if i < len(pool) else Var(_canon_name(i))
    return apply_subst(c, ren)
