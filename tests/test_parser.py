import random

import pytest
from hypothesis import given, settings, strategies as st

from softlog.logic import (
    DEFAULT_VARIABLES,
    IDENT,
    LITERAL,
    MAX_TERM_DEPTH,
    RESERVED_PREDS,
    Atom,
    Clause,
    Const,
    Func,
    ILPProblem,
    Language,
    Var,
    nest_depth,
    to_text,
)
from softlog.parser import (
    ParseError,
    parse_atom,
    parse_clause,
    parse_problem,
    parse_term,
    print_atom,
    print_clause,
    print_term,
    problem_to_text,
)
from conftest import (
    print_term_compact,
    random_atom,
    random_ground_atom,
    random_term,
    reference_print_atom,
    reference_print_clause,
    reference_print_term,
)


def test_list_print_and_parse(list_lang):
    ab = Func("f", (Const("a"), Func("f", (Const("b"), Const("*")))))
    assert print_term(ab, list_lang) == "[a,b]"
    assert parse_term("[a,b]", list_lang) == ab
    assert parse_term("[]", list_lang) == Const("*")
    cons = Func("f", (Var("x"), Var("y")))
    assert print_term(cons, list_lang) == "[x|y]"
    assert parse_term("[x|y]", list_lang) == cons
    assert parse_term("[a,b|y]", list_lang) == Func(
        "f", (Const("a"), Func("f", (Const("b"), Var("y"))))
    )


def test_no_sugar_without_star(pq_lang):
    # f/1 and no '*': plain syntax only
    t = Func("f", (Const("a"),))
    assert print_term(t, pq_lang) == "f(a)"
    with pytest.raises(ParseError):
        parse_term("[a]", pq_lang)


def test_sugar_needs_binary_f(nat_lang):
    with pytest.raises(ParseError):
        parse_term("[0]", nat_lang)


def test_compact_naturals(nat_lang):
    t = Func("s", (Func("s", (Func("s", (Const("0"),)),)),))
    assert print_term(t, nat_lang) == "s(s(s(0)))"
    assert print_term_compact(t) == "s^3(0)"


def test_roundtrip_random_atoms(list_lang):
    rng = random.Random(3)
    for _ in range(300):
        atom = random_atom(rng, list_lang, depth=3)
        assert parse_atom(print_atom(atom, list_lang), list_lang) == atom


@pytest.mark.parametrize("lang_name", ["pq_lang", "nat_lang", "list_lang"])
def test_one_printer_matches_the_reference_printers(lang_name, request):
    """``to_text``, ``repr`` and the parser's printers write, byte for byte,
    what the parser's own three printers wrote before ``to_text`` replaced
    them: plain text without sugar, list sugar with it (pq's f/1 is no list
    cell), over random terms, atoms and clauses."""
    lang = request.getfixturevalue(lang_name)
    sugar = Language(functions=[("f", 2)], constants=["*"])
    rng = random.Random(lang_name)
    for _ in range(2000):
        body = [random_atom(rng, lang) for _ in range(rng.randrange(3))]
        drawn = (
            (random_term(rng, lang, depth=3), print_term, reference_print_term),
            (random_atom(rng, lang, depth=3), print_atom, reference_print_atom),
            (Clause(random_atom(rng, lang), body), print_clause, reference_print_clause),
        )
        for e, printer, reference in drawn:
            plain = reference(e)
            assert repr(e) == to_text(e) == printer(e) == plain
            assert printer(e, lang) == reference(e, lang)
            assert to_text(e, True) == reference(e, sugar)


def test_roundtrip_clause(list_lang):
    text = "mem(x,[y|z]) :- mem(x,z)"
    c = parse_clause(text, list_lang)
    assert print_clause(c, list_lang) == text
    assert parse_clause(print_clause(c, list_lang), list_lang) == c


def test_parse_error_has_position(list_lang):
    with pytest.raises(ParseError) as err:
        parse_atom("mem(a", list_lang)
    assert err.value.line == 1

    with pytest.raises(ParseError, match="applied to 1"):
        parse_atom("mem(a)", list_lang)


def test_term_nesting_bound(nat_lang, list_lang):
    # a term as deep as the bound parses; one level deeper is refused at the
    # function or list that opens the extra level
    deep = "s(" * MAX_TERM_DEPTH + "0" + ")" * MAX_TERM_DEPTH
    assert nest_depth(parse_term(deep, nat_lang)) == MAX_TERM_DEPTH
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_TERM_DEPTH}") as err:
        parse_atom(f"e(s({deep}))", nat_lang)
    assert (err.value.line, err.value.col) == (1, 3 + 2 * MAX_TERM_DEPTH)
    # the k-th list element sits k cells deep, and the tail as deep as the last
    elems = ["a"] * MAX_TERM_DEPTH
    for text in (f"[{','.join(elems)}]", f"[{','.join(elems[1:])}|[a]]",
                 f"[{','.join(elems[2:])},[a]]"):
        assert nest_depth(parse_term(text, list_lang)) == MAX_TERM_DEPTH, text
    for text in (f"[{','.join(elems)},a]", f"[{','.join(elems)}|[a]]",
                 f"[{','.join(elems[1:])},[a]]"):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_term(text, list_lang)


def test_reserved_atoms(list_lang):
    assert parse_atom("true", list_lang) == Atom("true")
    with pytest.raises(ParseError):
        parse_atom("true(a)", list_lang)


PROBLEM_TEXT = """\
# membership over short lists
pred mem/2.
func f/2.
const a. const b. const c. const *.
init mem(x,y).
bg  mem(a,[a]).
pos mem(a,[a,c]).
neg mem(c,[b,a]).
"""


def test_parse_problem_roundtrip():
    problem = parse_problem(PROBLEM_TEXT)
    assert problem.language.pred_arity("mem") == 2
    assert len(problem.pos) == 1 and len(problem.neg) == 1
    assert problem.initial_clauses[0] == Clause(Atom("mem", (Var("x"), Var("y"))))
    assert parse_problem(problem_to_text(problem)) == problem


def test_empty_statements_skipped():
    problem = parse_problem(". pred p/1.. const a. # c.\n.\npos p(a).")
    assert problem.language.predicates == (("p", 1),)
    assert problem.language.constants == ("a",)
    assert problem.pos == (Atom("p", (Const("a"),)),)


def test_declarations_may_follow_their_first_use():
    problem = parse_problem("pos p(a). pred p/1. const a. const b. neg p(b).")
    assert problem.language.predicates == (("p", 1),)
    assert problem.pos == (Atom("p", (Const("a"),)),)
    assert problem.neg == (Atom("p", (Const("b"),)),)


def test_problem_rejects_bad_arity():
    bad = PROBLEM_TEXT.replace("pos mem(a,[a,c]).", "pos mem(a).")
    with pytest.raises(ParseError, match="applied to 1"):
        parse_problem(bad)


def test_problem_rejects_reserved_pred():
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("pred true/1.")


def test_problem_rejects_a_nullary_function():
    with pytest.raises(ParseError, match="arity >= 1, found 'g/0'") as err:
        parse_problem("pred p/1.\nfunc g/0.\nconst a.\npos p(a).")
    assert (err.value.line, err.value.col) == (2, 6)


def test_problem_rejects_variable_named_constant():
    with pytest.raises(ParseError, match="'x' is both a constant and a variable"):
        parse_problem("pred p/1. const x.")
    # a declared variable and constant clash in either order, at the second
    for decls in ("var u. const u.", "const u. var u."):
        with pytest.raises(ParseError, match="'u' is both a constant and a variable") as err:
            parse_problem(f"pred p/1. {decls} pos p(u).")
        assert (err.value.line, err.value.col) == (1, 24)


@pytest.mark.parametrize("decl, col, message", [
    ("pred p/2.", 8, "duplicate predicate 'p'"),
    ("func f/2.", 8, "duplicate function symbol 'f'"),
    ("const a.", 9, "duplicate constant 'a'"),
])
def test_problem_rejects_a_duplicate_at_the_second_declaration(decl, col, message):
    text = f"pred p/1.\nfunc f/1.\nconst a.\npos p(a).\n  {decl}\n"
    with pytest.raises(ParseError, match=message) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (5, col)


# names drawn from the token grammar, as a problem file's declarations
_idents = st.from_regex(IDENT, fullmatch=True)


def _named(names, arities):
    return st.lists(st.tuples(names, arities), min_size=1, max_size=3,
                    unique_by=lambda e: e[0])


@st.composite
def problems(draw):
    """A problem over a language drawn from the name grammar, with random
    ground examples and background and head-only initial clauses.  Its
    variable pool starts with DEFAULT_VARIABLES, as a problem file's does."""
    preds = draw(_named(_idents.filter(lambda p: p not in RESERVED_PREDS),
                        st.integers(0, 3)))
    funcs = draw(_named(_idents, st.integers(1, 3)))
    variables = DEFAULT_VARIABLES + tuple(draw(st.lists(
        st.from_regex("[a-z][A-Za-z0-9_]*", fullmatch=True).filter(
            lambda v: v not in DEFAULT_VARIABLES), max_size=2, unique=True)))
    constants = draw(st.lists(
        st.from_regex(f"{IDENT}|{LITERAL}", fullmatch=True).filter(
            lambda c: c not in variables), min_size=1, max_size=4, unique=True))
    lang = Language(preds, funcs, constants, variables)
    rng = random.Random(draw(st.integers(0, 2**32)))
    atoms = lambda: tuple(random_ground_atom(rng, lang) for _ in range(rng.randrange(4)))
    init = tuple(Clause(random_atom(rng, lang)) for _ in range(rng.randrange(3)))
    name = draw(st.one_of(st.just(""), _idents))
    pos = tuple(dict.fromkeys(atoms()))  # an example appears once, in one class
    neg = tuple(a for a in dict.fromkeys(atoms()) if a not in pos)
    return ILPProblem(pos, neg, atoms(), lang, init, name)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(problem=problems())
def test_problem_text_round_trips(problem):
    assert parse_problem(problem_to_text(problem)) == problem


def test_problem_extra_variable():
    problem = parse_problem("pred p/2.\nvar u.\ninit p(x,u).")
    assert problem.language.variables[-1] == "u"
    assert "var u." in problem_to_text(problem)


def test_nonground_example_rejected():
    with pytest.raises(ParseError, match="ground"):
        parse_problem("pred p/1.\npos p(x).")


@pytest.mark.parametrize("task", ["", "task t.\n"], ids=["no-task", "task"])
@pytest.mark.parametrize("statement, col, message", [
    ("bg false.", 6, "bg 0: 'false' is reserved"),
    ("pos true.", 7, "pos 1: 'true' is reserved"),
    ("neg p(x).", 7, r"neg 0: atoms must be ground: p\(x\)"),
    ("init false :- p(a).", 8, "init 0: 'false' is reserved and cannot head a clause"),
], ids=["bg-false", "pos-true", "non-ground-neg", "init-false"])
def test_problem_part_refused_at_its_statement(task, statement, col, message):
    text = f"{task}pred p/1. const a.\npos p(a).\n  {statement}\nneg p(a).\n"
    line = 3 + len(task) // len("task t.\n")
    with pytest.raises(ParseError, match=f"^line {line}, column {col}: {message}") as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_loose_clause_rejected_with_line():
    text = "pred p/1.\npred q/2.\nconst a.\ninit p(x) :- q(x,y).\n"
    with pytest.raises(ParseError, match="not range-restricted") as exc:
        parse_problem(text)
    assert exc.value.line == 4
    assert "variable y" in str(exc.value)


def test_task_name_roundtrip():
    problem = parse_problem("task plus.\n" + PROBLEM_TEXT)
    assert problem.name == "plus"
    assert problem_to_text(problem).startswith("task plus.\n")
    assert parse_problem(problem_to_text(problem)).name == "plus"
    assert parse_problem(PROBLEM_TEXT).name == ""
    assert "task" not in problem_to_text(parse_problem(PROBLEM_TEXT))


def test_task_statement_checked():
    with pytest.raises(ParseError, match="duplicate task"):
        parse_problem("task plus.\ntask member.")
    with pytest.raises(ParseError, match="bad task name"):
        parse_problem("task p(x).")


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("pred p/1.\nconst a.\npos p(b).", 3, 7),  # after the keyword
        ("pred p/1.\n   bg p(q).", 2, 9),  # indented statement
        ("pred p/1.\nconst a.\npos p(a,\n  b).", 4, 3),  # second line of a statement
        ("pred p/1. const a. pos p(a). neg p(c).", 1, 36),  # later on the same line
    ],
)
def test_problem_error_at_file_position(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"line {line}, column {col}: ")


@pytest.mark.parametrize("statement, col, message", [
    ("pos p(a)@.", 11, "unexpected character '@'"),
    ("pos p(a].", 10, "expected ')', found ']'"),
    ("pos p(,).", 9, "expected a term, found ','"),
    ("pos p(g(a)).", 9, "undeclared function symbol 'g'"),
    ("func g/2. pos p(g(a)).", 19, "function g/2 applied to 1 arguments"),
    ("pos (a).", 7, "expected a predicate name, found '('"),
    ("pos p(a)", 3, "statement missing terminating '.'"),
    ("pred q.", 8, "expected name/arity, found 'q'"),
    ("fact p(a).", 3, "unknown statement 'fact'"),
    ("const b c.", 9, "expected one name, found 'b c'"),
], ids=["character", "expected-token", "term", "function", "function-arity",
        "predicate-name", "no-period", "name-arity", "statement", "one-name"])
def test_problem_error_message_and_position(statement, col, message):
    with pytest.raises(ParseError) as err:
        parse_problem(f"pred p/1. const a.\n  {statement}\n")
    assert str(err.value) == f"line 2, column {col}: {message}"
    assert (err.value.line, err.value.col) == (2, col)


def test_clause_takes_one_terminating_period(list_lang):
    assert parse_clause("mem(x,y).", list_lang) == parse_clause("mem(x,y)", list_lang)
    for text in ("mem(x,y)..", "mem(x,y)...", "mem(x,y). ."):
        with pytest.raises(ParseError, match="trailing input"):
            parse_clause(text, list_lang)
