import re

import pytest

from softlog.datasets import (
    TASKS,
    TaskSpec,
    generate,
    inject_noise,
    load_problem,
    make_list,
    make_nat,
    problem_hash,
    save_problem,
    split,
)
from softlog.logic import Atom, Const, Func, ILPProblem, Language
from softlog.parser import parse_problem, print_atom, print_clause, problem_to_text
from softlog.prover import ProofConfig, entails

ORACLE = ProofConfig(max_depth=12)
# problem_hash of each task's 50-per-class instance at data seed 0, the
# instances the benchmark's learning workloads run on
SEED0_HASHES = {
    "append": "359b1d706ba9ae3f",
    "delete": "f3705e68660fe7dd",
    "member": "db3fc291b3802223",
    "plus": "2da8f51032c2bd0d",
    "subtree": "04a83748b2b577ad",
}


class TestTermBuilders:
    def test_make_list(self):
        assert make_list([]) == Const("*")
        assert make_list(["a", "b"]) == Func(
            "f", (Const("a"), Func("f", (Const("b"), Const("*"))))
        )

    def test_make_nat(self):
        assert make_nat(0) == Const("0")
        assert make_nat(2) == Func("s", (Func("s", (Const("0"),)),))


@pytest.mark.parametrize("task", sorted(TASKS))
class TestGenerate:
    def test_balanced_distinct_ground(self, task):
        problem = generate(TaskSpec(task, n_per_class=15, seed=0))
        assert len(problem.pos) == len(problem.neg) == 15
        examples = problem.examples
        assert len(set(examples)) == len(examples)
        assert all(a.ground for a in examples)

    def test_label_soundness_against_oracle(self, task):
        # positives entailed by the reference program, negatives refuted
        problem = generate(TaskSpec(task, n_per_class=12, seed=1))
        td = TASKS[task]
        for atom in problem.pos:
            assert entails(td.ground_truth, td.problem.background, atom, ORACLE), (
                f"positive not entailed: {print_atom(atom, td.language)}"
            )
        for atom in problem.neg:
            assert not entails(td.ground_truth, td.problem.background, atom, ORACLE), (
                f"negative entailed: {print_atom(atom, td.language)}"
            )

    def test_no_example_in_background(self, task):
        problem = generate(TaskSpec(task, n_per_class=15, seed=2))
        assert not set(problem.examples) & set(problem.background)

    def test_same_seed_identical(self, task):
        a = generate(TaskSpec(task, n_per_class=10, seed=5))
        b = generate(TaskSpec(task, n_per_class=10, seed=5))
        assert a.pos == b.pos and a.neg == b.neg

    def test_seed0_instance_unchanged(self, task):
        problem = generate(TaskSpec(task, n_per_class=50, seed=0))
        assert problem_hash(problem) == SEED0_HASHES[task]

    def test_matches_declared_language(self, task):
        problem = generate(TaskSpec(task, n_per_class=5, seed=3))
        td = TASKS[task]
        assert problem.language is td.language
        assert problem.background == td.problem.background
        assert problem.initial_clauses == td.problem.initial_clauses


def test_unknown_task_rejected():
    with pytest.raises(ValueError, match="unknown task"):
        generate(TaskSpec("sorting"))


class TestNoise:
    def test_zero_fraction_identity(self):
        problem = generate(TaskSpec("member", n_per_class=10, seed=0))
        assert inject_noise(problem, 0.0, seed=1) is problem

    def test_flip_count(self):
        problem = generate(TaskSpec("member", n_per_class=50, seed=0))
        noisy = inject_noise(problem, 0.5, seed=1)
        moved = set(problem.pos) ^ set(noisy.pos)
        assert len(moved) == 50

    def test_involution(self):
        problem = generate(TaskSpec("plus", n_per_class=20, seed=0))
        twice = inject_noise(inject_noise(problem, 0.2, seed=9), 0.2, seed=9)
        assert set(twice.pos) == set(problem.pos)
        assert set(twice.neg) == set(problem.neg)

    def test_rejects_bad_fraction(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        with pytest.raises(ValueError, match=r"noise must be in \[0, 1\], got 1.5"):
            inject_noise(problem, 1.5, seed=0)


class TestSplit:
    def test_stratified_sizes(self):
        problem = generate(TaskSpec("member", n_per_class=50, seed=0))
        train, test = split(problem, 0.7, seed=0)
        assert len(train.pos) == len(train.neg) == 35
        assert len(test) == 30
        assert sum(1 for _, y in test if y == 1) == 15

    def test_disjoint_and_complete(self):
        problem = generate(TaskSpec("delete", n_per_class=20, seed=1))
        train, test = split(problem, 0.7, seed=2)
        train_set = set(train.examples)
        test_set = {a for a, _ in test}
        assert not train_set & test_set
        assert train_set | test_set == set(problem.examples)

    def test_deterministic(self):
        problem = generate(TaskSpec("append", n_per_class=20, seed=1))
        a = split(problem, 0.7, seed=3)
        b = split(problem, 0.7, seed=3)
        assert a[0].pos == b[0].pos and a[1] == b[1]

    def test_repeated_example_refused(self):
        # a repeat could land on both sides of the split, or carry both labels
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        pos, neg = problem.pos, problem.neg
        text = print_atom(pos[1], problem.language)
        for examples, message in (
            ((pos + pos[1:2], neg), f"pos 5 repeats pos 1: {text}"),
            ((pos, neg + pos[1:2]), f"neg 5 repeats pos 1: {text}"),
            ((pos, neg[:1] + neg), f"neg 1 repeats neg 0: "),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                split(problem.with_examples(*examples), 0.7, seed=0)


class TestFiles:
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_save_load_roundtrip(self, task, tmp_path):
        problem = generate(TaskSpec(task, n_per_class=8, seed=0))
        path = tmp_path / f"{task}.pl"
        save_problem(problem, path)
        assert load_problem(path) == problem
        assert problem.name == task

    def test_list_sugar_emitted(self, tmp_path):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        text = problem_to_text(problem)
        assert "[" in text and "f(" not in text

    def test_save_refuses_a_problem_that_does_not_parse(self, tmp_path):
        # an example whose predicate the language does not declare
        problem = ILPProblem((Atom("q", (Const("zz"),)),), (), (),
                             Language([("p", 1)], constants=["a"]))
        path = tmp_path / "q.pl"
        with pytest.raises(ValueError) as refused:
            save_problem(problem, path)
        assert str(refused.value) == f"{path}: line 3, column 5: undeclared predicate 'q'"
        assert not path.exists()

    def test_save_refuses_a_pool_that_does_not_read_back(self, tmp_path):
        # a file can only extend the pool x,y,z,v,w
        problem = ILPProblem((Atom("p", (Const("a"),)),), (), (),
                             Language([("p", 1)], constants=["a"], variables=["x", "y", "z"]))
        path = tmp_path / "xyz.pl"
        with pytest.raises(ValueError) as refused:
            save_problem(problem, path)
        assert str(refused.value) == f"{path}: variable pool x,y,z would read back as x,y,z,v,w"
        assert not path.exists()

    def test_extra_variable_declared(self):
        text = problem_to_text(generate(TaskSpec("member", n_per_class=3, seed=0)))
        assert "var u." in text
        assert parse_problem(text).language.variables == TASKS["member"].language.variables


class TestTaskDefaults:
    def test_hyperparameters_table(self):
        assert (TASKS["member"].beam_size, TASKS["member"].beam_steps) == (3, 3)
        assert (TASKS["subtree"].beam_size, TASKS["subtree"].beam_steps) == (15, 3)
        for task in ("plus", "append", "delete"):
            assert (TASKS[task].beam_size, TASKS[task].beam_steps) == (10, 5)
        assert TASKS["member"].m == 2 and TASKS["delete"].m == 2
        assert TASKS["plus"].m == 3 and TASKS["append"].m == 3
        assert TASKS["subtree"].m == 4
        assert TASKS["plus"].steps == 8
        for task in ("member", "append", "delete", "subtree"):
            assert TASKS[task].steps == 4

    def test_ground_truth_programs_parse(self):
        # each task's example-free problem file, its printed reference
        # program, and (default_size, m, steps, beam_size, beam_steps)
        lists = "func f/2.\nconst a. const b. const c. const *.\nvar u.\n"
        pins = {
            "member": (
                "task member.\npred mem/2.\n" + lists + "init mem(x,y).\n"
                "bg mem(a,[a]).\nbg mem(b,[b]).\nbg mem(c,[c]).\n",
                ["mem(x,[y|z]) :- mem(x,z)", "mem(x,[x|y])"],
                (5, 2, 4, 3, 3),
            ),
            "plus": (
                "task plus.\npred plus/3.\nfunc s/1.\nconst 0.\nvar u.\n"
                "init plus(x,y,z).\nbg plus(0,0,0).\n",
                ["plus(0,x,x)", "plus(x,s(y),s(z)) :- plus(x,y,z)",
                 "plus(s(x),y,s(z)) :- plus(y,x,z)"],
                (9, 3, 8, 10, 5),
            ),
            "append": (
                "task append.\npred app/3.\n" + lists + "init app(x,y,z).\n"
                "bg app([],[],[]).\n",
                ["app([],x,x)", "app(x,[],x)", "app([x|y],z,[x|v]) :- app(y,z,v)"],
                (5, 3, 4, 10, 5),
            ),
            "delete": (
                "task delete.\npred del/3.\n" + lists + "init del(x,y,z).\n"
                "bg del(a,[a],[]).\nbg del(b,[b],[]).\nbg del(c,[c],[]).\n",
                ["del(x,[x|y],y)", "del(x,[y|z],[y|v]) :- del(x,z,v)"],
                (5, 2, 4, 10, 5),
            ),
            "subtree": (
                "task subtree.\npred sub/2.\nfunc f/2.\nconst a. const b. const c.\n"
                "var u.\ninit sub(x,y).\nbg sub(a,a).\nbg sub(b,b).\nbg sub(c,c).\n",
                ["sub(f(x,y),f(x,y))", "sub(x,f(y,z)) :- sub(x,z)",
                 "sub(x,f(y,z)) :- sub(x,y)", "sub(x,f(y,x))"],
                (3, 4, 4, 15, 3),
            ),
        }
        assert list(TASKS) == list(pins)
        for name, (header, program, table) in pins.items():
            td = TASKS[name]
            assert td.problem.name == name
            assert problem_to_text(td.problem) == header
            assert [print_clause(c, td.language) for c in td.ground_truth] == program
            assert (td.default_size, td.m, td.steps, td.beam_size,
                    td.beam_steps) == table
