import random

import pytest

from softlog.logic import Atom, Clause, Const, Func, Var
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
from conftest import print_term_compact, random_atom


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
    text = problem_to_text(problem)
    again = parse_problem(text)
    assert again.pos == problem.pos
    assert again.neg == problem.neg
    assert again.background == problem.background
    assert problem_to_text(again) == text


def test_empty_statements_skipped():
    problem = parse_problem(". pred p/1.. const a. # c.\n.\npos p(a).")
    assert problem.language.predicates == (("p", 1),)
    assert problem.language.constants == ("a",)
    assert problem.pos == (Atom("p", (Const("a"),)),)


def test_problem_rejects_bad_arity():
    bad = PROBLEM_TEXT.replace("pos mem(a,[a,c]).", "pos mem(a).")
    with pytest.raises(ParseError, match="applied to 1"):
        parse_problem(bad)


def test_problem_rejects_reserved_pred():
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("pred true/1.")


def test_problem_rejects_variable_named_constant():
    with pytest.raises(ParseError, match="variable name"):
        parse_problem("pred p/1. const x.")


def test_problem_extra_variable():
    problem = parse_problem("pred p/2.\nvar u.\ninit p(x,u).")
    assert problem.language.variables[-1] == "u"
    assert "var u." in problem_to_text(problem)


def test_nonground_example_rejected():
    with pytest.raises(ParseError, match="ground"):
        parse_problem("pred p/1.\npos p(x).")


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


def test_clause_takes_one_terminating_period(list_lang):
    assert parse_clause("mem(x,y).", list_lang) == parse_clause("mem(x,y)", list_lang)
    for text in ("mem(x,y)..", "mem(x,y)...", "mem(x,y). ."):
        with pytest.raises(ParseError, match="trailing input"):
            parse_clause(text, list_lang)
