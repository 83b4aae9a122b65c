import logging

import pytest

import softlog.search
from softlog.datasets import TASKS, TaskSpec, generate
from softlog.logic import canonical, ILPProblem
from softlog.parser import parse_atom, parse_clause
from softlog.prover import ProofConfig, eval_counts
from softlog.run import default_beam_config
from softlog.search import BeamConfig, beam_search, naive_generate, refine


@pytest.fixture
def worked_problem(pq_lang):
    def A(t):
        return parse_atom(t, pq_lang)

    return ILPProblem(
        pos=(A("p(a,a)"), A("p(b,b)"), A("p(b,c)"), A("p(c,b)")),
        neg=(A("p(a,b)"), A("p(b,a)")),
        background=(A("q(b,c)"), A("q(c,b)")),
        language=pq_lang,
        initial_clauses=(parse_clause("p(x,y)", pq_lang),),
    )


def canon_set(clauses):
    return {canonical(c) for c in clauses}


def spy_on_beam(monkeypatch):
    """The canonical forms of the clauses beam_search refines, of the
    refinements it gets back, and of the clauses it scores, in call order."""
    refined, produced, scored = [], [], []

    def refine_spy(c, *args, **kwargs):
        out = refine(c, *args, **kwargs)
        refined.append(canonical(c))
        produced.extend(canonical(r) for r in out)
        return out

    def eval_spy(c, *args, **kwargs):
        scored.append(canonical(c))
        return eval_counts(c, *args, **kwargs)

    monkeypatch.setattr(softlog.search, "refine", refine_spy)
    monkeypatch.setattr(softlog.search, "eval_counts", eval_spy)
    return refined, produced, scored


class TestBeamSearch:
    def test_worked_beam_content(self, pq_lang, worked_problem):
        got = beam_search(
            list(worked_problem.initial_clauses),
            worked_problem,
            BeamConfig(beam_size=2, beam_steps=2),
            proof_cfg=ProofConfig(2),
        )
        expect = {
            canonical(parse_clause(t, pq_lang))
            for t in ("p(x,y)", "p(x,x)", "p(x,y) :- q(x,y)")
        }
        assert expect <= canon_set(got)

    def test_zero_score_clause_not_opened(self, pq_lang, worked_problem):
        # the function-headed refinement entails nothing and is discarded
        got = beam_search(
            list(worked_problem.initial_clauses),
            worked_problem,
            BeamConfig(beam_size=2, beam_steps=2),
            proof_cfg=ProofConfig(2),
        )
        assert canonical(parse_clause("p(f(x),y)", pq_lang)) not in canon_set(got)

    def test_single_step_returns_initials(self, pq_lang, worked_problem):
        got = beam_search(
            list(worked_problem.initial_clauses),
            worked_problem,
            BeamConfig(beam_size=5, beam_steps=1),
            proof_cfg=ProofConfig(2),
        )
        assert canon_set(got) == canon_set(worked_problem.initial_clauses)

    def test_single_step_scores_the_initials_and_refines_nothing(
        self, worked_problem, monkeypatch
    ):
        refined, _, scored = spy_on_beam(monkeypatch)
        beam_search(
            list(worked_problem.initial_clauses), worked_problem,
            BeamConfig(beam_size=5, beam_steps=1), proof_cfg=ProofConfig(2),
        )
        assert refined == []
        assert scored == [canonical(c) for c in worked_problem.initial_clauses]

    def test_the_last_beam_is_opened_not_refined(self, delete_problem, monkeypatch):
        # the clauses a run of k - 1 rounds opens are those of rounds 1 to
        # k - 1 of a k-round run; each is refined once, the last beam never
        problem, beam_cfg, proof_cfg = delete_problem

        def opened(rounds):
            cfg = BeamConfig(beam_size=beam_cfg.beam_size, beam_steps=rounds)
            return canon_set(beam_search(list(problem.initial_clauses), problem, cfg,
                                         proof_cfg=proof_cfg))

        earlier = opened(beam_cfg.beam_steps - 1)
        refined, produced, scored = spy_on_beam(monkeypatch)
        last_beam = opened(beam_cfg.beam_steps) - earlier
        assert last_beam and beam_cfg.beam_steps > 2
        assert len(refined) == len(earlier) and set(refined) == earlier
        assert not last_beam & set(refined)
        # only the initial clauses and the refinements of earlier rounds are
        # scored, each once
        assert len(scored) == len(set(scored))
        assert set(scored) <= canon_set(problem.initial_clauses) | set(produced)

    def test_deterministic(self, worked_problem):
        cfg = BeamConfig(beam_size=3, beam_steps=3)
        runs = [
            beam_search(list(worked_problem.initial_clauses), worked_problem, cfg,
                        proof_cfg=ProofConfig(2))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_no_duplicates_and_size_bound(self, worked_problem):
        cfg = BeamConfig(beam_size=3, beam_steps=3)
        got = beam_search(
            list(worked_problem.initial_clauses), worked_problem, cfg,
            proof_cfg=ProofConfig(2),
        )
        assert len(got) == len(canon_set(got))
        # opened clauses: initials plus at most beam_size per step
        assert len(got) <= 1 + cfg.beam_size * cfg.beam_steps

    @pytest.mark.parametrize("case", ["worked", "delete"])
    def test_returned_refinements_prove_a_positive(self, case, request):
        # a refinement proving no training positive is never buffered, so
        # never opened; the wide worked beam would otherwise open p(f(x),y)
        if case == "worked":
            problem = request.getfixturevalue("worked_problem")
            beam_cfg, proof_cfg = BeamConfig(beam_size=30, beam_steps=2), ProofConfig(2)
        else:
            problem, beam_cfg, proof_cfg = request.getfixturevalue("delete_problem")
        got = beam_search(list(problem.initial_clauses), problem, beam_cfg,
                          proof_cfg=proof_cfg)
        initial = canon_set(problem.initial_clauses)
        refined = [c for c in got if canonical(c) not in initial]
        assert len(refined) > 1
        for c in refined:
            assert eval_counts(c, problem, proof_cfg)[0], c

    def test_requires_initial(self, worked_problem):
        with pytest.raises(ValueError):
            beam_search([], worked_problem, BeamConfig())

    def test_rejects_a_clause_budget_below_one(self, worked_problem):
        for budget in (0, -1):
            with pytest.raises(ValueError, match=f"max_clauses must be >= 1, got {budget}"):
                beam_search(list(worked_problem.initial_clauses), worked_problem,
                            BeamConfig(), max_clauses=budget)

    def test_reachability(self, pq_lang, worked_problem):
        # every returned clause is within beam_steps refinements of the seed
        cfg = BeamConfig(beam_size=3, beam_steps=2)
        got = beam_search(list(worked_problem.initial_clauses), worked_problem, cfg,
                          proof_cfg=ProofConfig(2))
        frontier = canon_set(worked_problem.initial_clauses)
        reachable = set(frontier)
        layer = list(worked_problem.initial_clauses)
        for _ in range(cfg.beam_steps):
            nxt = []
            for c in layer:
                for r in refine(c, pq_lang, base_nest=0):
                    if canonical(r) not in reachable:
                        reachable.add(canonical(r))
                        nxt.append(r)
            layer = nxt
        assert canon_set(got) <= reachable


@pytest.fixture(scope="module")
def delete_problem():
    problem = generate(TaskSpec("delete", n_per_class=50, seed=0))
    return problem, default_beam_config("delete"), ProofConfig(TASKS["delete"].steps)


class TestInheritedCoverage:
    """A refinement proves a subset of its parent's examples at the same
    depth, so the beam proves it on the parent's cover only."""

    @staticmethod
    def assert_restriction_exact(parents, problem, cfg):
        checked = 0
        for c in parents:
            cover = eval_counts(c, problem, cfg)
            for r in refine(c, problem.language):
                full = eval_counts(r, problem, cfg)
                assert eval_counts(r, problem, cfg, within=cover) == full, r
                checked += 1
        assert checked

    def test_restricted_scoring_is_exact_on_the_worked_problem(self, worked_problem):
        seeds = list(worked_problem.initial_clauses)
        parents = seeds + [r for c in seeds for r in refine(c, worked_problem.language)]
        self.assert_restriction_exact(parents, worked_problem, ProofConfig(2))

    def test_restricted_scoring_is_exact_on_delete(self, delete_problem):
        problem, beam_cfg, proof_cfg = delete_problem
        opened = beam_search(
            list(problem.initial_clauses), problem, beam_cfg, proof_cfg=proof_cfg
        )
        self.assert_restriction_exact(opened, problem, proof_cfg)

    @pytest.mark.parametrize("max_clauses", [None, 3, 7])
    def test_beam_equals_unrestricted_beam(self, max_clauses, delete_problem, monkeypatch):
        problem, beam_cfg, proof_cfg = delete_problem

        def run():
            return beam_search(
                list(problem.initial_clauses), problem, beam_cfg,
                proof_cfg=proof_cfg, max_clauses=max_clauses,
            )

        inherited = run()

        def full_scoring(clause, problem, cfg, within=None):
            return eval_counts(clause, problem, cfg)

        monkeypatch.setattr(softlog.search, "eval_counts", full_scoring)
        assert run() == inherited

    def test_log_line_counts_the_proofs(self, worked_problem, monkeypatch, caplog):
        calls = []

        def counted(clause, problem, cfg, within=None):
            calls.append(within)
            return eval_counts(clause, problem, cfg, within)

        monkeypatch.setattr(softlog.search, "eval_counts", counted)
        with caplog.at_level(logging.INFO, logger="softlog.search"):
            beam_search(
                list(worked_problem.initial_clauses), worked_problem,
                BeamConfig(beam_size=3, beam_steps=3), proof_cfg=ProofConfig(2),
            )
        n_examples = len(worked_problem.examples)
        proofs = sum(
            n_examples if w is None else len(w[0]) + len(w[1]) for w in calls
        )
        assert proofs < len(calls) * n_examples
        (line,) = [r.getMessage() for r in caplog.records if r.name == "softlog.search"]
        assert line == (
            f"beam: clauses scored={len(calls)}, example proofs={proofs} "
            f"of {len(calls) * n_examples} (clauses x |E|)"
        )


class TestNaiveGenerate:
    def test_first_clause_only(self, worked_problem):
        got = naive_generate(list(worked_problem.initial_clauses), worked_problem, 1)
        assert len(got) == 1
        assert canonical(got[0]) == canonical(worked_problem.initial_clauses[0])

    def test_count_and_distinctness(self, worked_problem):
        got = naive_generate(list(worked_problem.initial_clauses), worked_problem, 10)
        assert len(got) == 10
        assert len(canon_set(got)) == 10

    def test_seed_membership_agrees_with_beam(self, worked_problem):
        naive = naive_generate(list(worked_problem.initial_clauses), worked_problem, 5)
        beam = beam_search(
            list(worked_problem.initial_clauses), worked_problem,
            BeamConfig(beam_size=2, beam_steps=2), proof_cfg=ProofConfig(2),
        )
        seed = canonical(worked_problem.initial_clauses[0])
        assert seed in canon_set(naive) and seed in canon_set(beam)

    def test_rejects_bad_count(self, worked_problem):
        with pytest.raises(ValueError):
            naive_generate(list(worked_problem.initial_clauses), worked_problem, 0)
