import argparse
import inspect
import io
import json
import os
import pickle
import re
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from softlog.cli import build_parser, main
from softlog.datasets import TaskSpec, generate, load_problem, save_problem
from softlog.parser import print_atom
from softlog.prover import MAX_HORIZON, ProofConfig
from softlog.run import (
    Job,
    default_beam_config,
    default_train_config,
    evaluate_saved,
    load_weights,
    run_job,
    run_problem,
    save_weights,
    sweep,
)
from softlog.search import BeamConfig
from softlog.training import TrainConfig

FAST = dict(epochs=120)


def strict_loads(text):
    """Parse RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def member_result():
    return run_job(Job("member", n_per_class=12, train=FAST))


@pytest.fixture
def saved_member(member_result, tmp_path):
    """The member run's problem file, weight file and weight-file entries."""
    prob, weights = tmp_path / "p.pl", tmp_path / "weights.json"
    save_problem(member_result.problem, prob)
    save_weights(weights, member_result)
    return prob, weights, json.loads(weights.read_text())


@pytest.fixture(scope="module")
def saved_texts(member_result, tmp_path_factory):
    """The member run's problem and weight file texts, and a directory."""
    where = tmp_path_factory.mktemp("fuzz")
    save_problem(member_result.problem, where / "p.pl")
    save_weights(where / "weights.json", member_result)
    return {"problem": (where / "p.pl").read_text(),
            "weights": (where / "weights.json").read_text()}, where


_EDITS = st.lists(st.tuples(
    st.sampled_from(["drop", "insert", "repeat"]),
    st.integers(0, 2**20),  # the place, modulo the text's length
    st.sampled_from("[{]}(),.:|\"a0x -\n"),
    st.sampled_from([1, 2, 5000]),  # how many copies an insert or repeat writes
), min_size=1, max_size=3)


@settings(max_examples=200, derandomize=True, deadline=None)
@example(kind="weights", edits=[("insert", 0, "[", 5000)])
@example(kind="problem", edits=[("repeat", 0, "[", 5000)])
@given(kind=st.sampled_from(["problem", "weights"]), edits=_EDITS)
def test_a_mutated_file_loads_or_is_refused_naming_it(saved_texts, member_result, kind,
                                                      edits):
    texts, where = saved_texts
    text = texts[kind]
    for op, at, char, copies in edits:
        i = at % (len(text) + 1)
        if op == "drop":
            text = text[:i] + text[i + 1:]
        elif op == "insert":
            text = text[:i] + char * copies + text[i:]
        else:
            text = text[:i] + text[i:i + 1] * copies + text[i + 1:]
    path = where / f"mutated-{kind}"
    path.write_text(text)
    try:
        if kind == "problem":
            load_problem(path)
        else:
            load_weights(path, member_result.problem)
    except ValueError as e:
        assert str(e).startswith(f"{path}: ")


class TestRunProblem:
    def test_record_fields(self, member_result):
        r = member_result.record
        assert r.task == "member"
        assert r.n_clauses == len(member_result.clauses)
        assert r.param_count == r.config["m"] * r.n_clauses
        assert r.loss_samples and len(r.program) >= 1
        assert r.runtime_s > 0
        assert len(r.dataset_hash) == 16

    def test_reproducible(self):
        job = Job("member", n_per_class=12, train=FAST)
        a, b = run_job(job).record, run_job(job).record
        assert a.loss_samples == b.loss_samples
        assert a.test_mse == b.test_mse
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("runtime_s"), db.pop("runtime_s")
        assert da == db

    def test_records_without_held_out_atoms_compare_equal(self):
        # the undefined test metrics are None, which equals itself
        job = Job("member", n_per_class=10, train={"epochs": 20}, split_frac=1.0)
        a, b = (replace(run_job(job).record, runtime_s=0.0) for _ in range(2))
        assert a.test_auc is a.test_mse is None
        assert a == b

    def test_record_serializes(self, member_result):
        payload = json.loads(member_result.record.to_json())
        assert payload["task"] == "member"

    def test_eval_grounding_seeds_held_out_atoms(self, member_result, monkeypatch):
        from softlog import run as run_module
        from softlog.datasets import split
        from softlog.grounding import ground_context
        from softlog.training import metrics, predictions

        problem = member_result.problem
        train_p, test_labels = split(problem, 0.7, 0)
        steps = member_result.record.config["steps"]
        gamma = member_result.record.config["gamma"]
        held_out = [a for a, _ in test_labels]
        seen = []

        def spy(*args):
            seen.append(ground_context(*args))
            return seen[-1]

        monkeypatch.setattr(run_module, "ground_context", spy)
        got = run_module.evaluate(
            train_p, member_result.clauses, member_result.weights, test_labels,
            steps, gamma,
        )
        (g_eval,) = seen
        assert set(held_out) <= set(g_eval.atoms)
        # the training examples are not seeds, yet every held-out score equals
        # the one from a grounding seeded with train and held-out atoms
        both = train_p.with_examples(
            train_p.pos + tuple(a for a, y in test_labels if y),
            train_p.neg + tuple(a for a, y in test_labels if not y),
        )
        g_both = ground_context(both, member_result.clauses, steps)

        def scores(ctx):
            return predictions(held_out, ctx, member_result.weights, steps, gamma)

        assert len(g_eval) < len(g_both)
        assert np.array_equal(scores(g_eval), scores(g_both))
        assert got == metrics(scores(g_both), [y for _, y in test_labels])

    def test_saved_weights_reproduce_metrics(self, member_result, tmp_path):
        wpath = tmp_path / "weights.json"
        save_weights(wpath, member_result)
        m = evaluate_saved(member_result.problem, wpath)
        assert m["test_mse"] == member_result.record.test_mse
        assert m["test_auc"] == member_result.record.test_auc

    def test_naive_generation_mode(self):
        problem = generate(TaskSpec("member", n_per_class=12, seed=0))
        tc = default_train_config("member", seed=0, **FAST)
        bc = default_beam_config("member")
        res = run_problem(problem, tc, bc, naive_n=6)
        assert res.record.n_clauses == 6

    def test_naive_generation_refuses_a_clause_cap(self, monkeypatch):
        import softlog.run

        def no_generator(*a, **kw):
            raise AssertionError("naive generation ran with a clause cap")

        monkeypatch.setattr(softlog.run, "naive_generate", no_generator)
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        tc = default_train_config("member", seed=0, **FAST)
        with pytest.raises(ValueError, match="not both"):
            run_problem(problem, tc, default_beam_config("member"), naive_n=6, clause_cap=4)


class TestJob:
    def test_pickled_job_runs_the_same(self):
        # a worker process receives its job pickled
        job = Job("member", 1, 8, train={"epochs": 20}, beam={"beam_size": 2}, noise=0.1)
        back = pickle.loads(pickle.dumps(job))
        assert back == job
        a, b = run_job(job), run_job(back)
        da, db = json.loads(a.record.to_json()), json.loads(b.record.to_json())
        da.pop("runtime_s"), db.pop("runtime_s")
        assert da == db
        assert a.weights.w.tobytes() == b.weights.w.tobytes()

    def test_bad_config_fails_before_a_problem_is_drawn(self, monkeypatch):
        import softlog.run

        def no_generate(*a, **kw):
            raise AssertionError("a problem was drawn for a refused job")

        monkeypatch.setattr(softlog.run, "generate", no_generate)
        with pytest.raises(ValueError, match="TrainConfig.m must be >= 1"):
            run_job(Job("member", train={"m": 0}))
        for settings, message in [
            ({"noise": 1.5}, r"noise must be in \[0, 1\], got 1.5"),
            ({"split_frac": 0.0}, r"split_frac must be in \(0, 1\], got 0.0"),
            ({"naive_n": 5, "clause_cap": 5}, "not both"),
            ({"naive_n": 0}, "n_clause must be >= 1"),
            ({"clause_cap": 0}, "max_clauses must be >= 1, got 0"),
            # a wrong type, before it reaches the grounding or a comparison
            ({"train": {"steps": 2.5}}, "TrainConfig.steps must be int, got 2.5"),
            ({"train": {"gamma": "1e-5"}}, "TrainConfig.gamma must be float, got '1e-5'"),
            ({"train": {"epochs": True}}, "TrainConfig.epochs must be int, got True"),
            ({"beam": {"n_body": 1.0}}, "BeamConfig.n_body must be int, got 1.0"),
            ({"n_per_class": 2.5}, "Job.n_per_class must be int, got 2.5"),
            ({"noise": "0.1"}, "Job.noise must be float, got '0.1'"),
            ({"clause_cap": 3.0}, "Job.clause_cap must be int, got 3.0"),
        ]:
            with pytest.raises(ValueError, match=message):
                run_job(Job("member", **settings))
        # a sweep checks every cell before it runs the first
        with pytest.raises(ValueError, match=r"noise must be in \[0, 1\], got 1.5"):
            sweep("member", "noise", [0.0, 1.5], [0])

    def test_every_run_setting_is_a_job_field(self):
        # a new run_problem setting has to reach sweeps, the CLI and the
        # acceptance matrix, which all run jobs
        params = inspect.signature(run_problem).parameters
        settings = {k: p.default for k, p in params.items()
                    if k not in ("problem", "train_cfg", "beam_cfg")}
        defaults = {f.name: f.default for f in fields(Job)}
        assert settings.keys() <= defaults.keys()
        assert settings == {k: defaults[k] for k in settings}


def _cell(seed, metric, **kw):
    """One sweep cell run directly: the sweep's job, with epochs=60."""
    return getattr(run_job(Job("member", seed, 10, train={"epochs": 60}, **kw)).record, metric)


class TestSweep:
    def test_nclause_axis_rows(self):
        rows = sweep("member", "nclause", [5, 10], [0], n_per_class=10, epochs=60)
        assert len(rows) == 2
        assert [r[0] for r in rows] == [5.0, 10.0]
        assert all(0.0 <= r[2] <= 1.0 for r in rows)
        assert [r[2] for r in rows] == [
            _cell(0, "test_auc", naive_n=n) for n in (5, 10)
        ]

    def test_nclause_beam_axis_rows(self):
        rows = sweep("member", "nclause", [2, 4], [0, 1], n_per_class=10,
                     method="beam", epochs=60)
        assert [r[:2] for r in rows] == [(2.0, 0), (2.0, 1), (4.0, 0), (4.0, 1)]
        assert [r[2] for r in rows] == [
            _cell(seed, "test_auc", clause_cap=cap) for cap in (2, 4) for seed in (0, 1)
        ]

    def test_noise_axis_rows(self):
        rows = sweep("member", "noise", [0.0, 0.2], [0, 1], n_per_class=10, epochs=60)
        assert len(rows) == 4
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
        assert [r[2] for r in rows] == [
            _cell(seed, "test_mse", noise=noise) for noise in (0.0, 0.2) for seed in (0, 1)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep("member", "bogus", [1], [0])
        with pytest.raises(ValueError, match="at least one seed"):
            sweep("member", "noise", [0.1], [])
        with pytest.raises(ValueError, match="at least one value"):
            sweep("member", "noise", [], [0])


class TestCli:
    def test_gen_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "member.pl"
        assert main(["gen", "--task", "member", "--n", "8", "--seed", "3",
                     "--out", str(out)]) == 0
        problem = load_problem(out)
        assert len(problem.pos) == 8

    def test_gen_byte_identical(self, tmp_path):
        o1, o2 = tmp_path / "a.pl", tmp_path / "b.pl"
        main(["gen", "--task", "plus", "--n", "6", "--seed", "1", "--out", str(o1)])
        main(["gen", "--task", "plus", "--n", "6", "--seed", "1", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_gen_empty_examples_still_valid(self, tmp_path):
        out = tmp_path / "empty.pl"
        assert main(["gen", "--task", "member", "--n", "0", "--out", str(out)]) == 0
        problem = load_problem(out)
        assert problem.pos == () and problem.language.pred_arity("mem") == 2

    def test_train_eval_cycle(self, tmp_path, capsys):
        prob = tmp_path / "p.pl"
        main(["gen", "--task", "member", "--n", "10", "--seed", "2", "--out", str(prob)])
        outdir = tmp_path / "run"
        code = main(["train", str(prob), "--task", "member", "--epochs", "100",
                     "--seed", "2", "--out", str(outdir)])
        assert code == 0
        rec = json.loads((outdir / "run.json").read_text())
        capsys.readouterr()
        assert main(["eval", str(prob), "--weights", str(outdir / "weights.json")]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["test_mse"] == rec["test_mse"]

    def test_eval_of_a_noisy_run(self, tmp_path, capsys):
        # noise flips training examples only, so eval does not redraw it and
        # the weight file does not record it; an older file's entry is ignored
        prob, outdir = tmp_path / "p.pl", tmp_path / "run"
        main(["gen", "--task", "member", "--n", "10", "--seed", "2", "--out", str(prob)])
        assert main(["train", str(prob), "--epochs", "100", "--seed", "2",
                     "--noise", "0.3", "--out", str(outdir)]) == 0
        rec = strict_loads((outdir / "run.json").read_text())
        saved = json.loads((outdir / "weights.json").read_text())
        assert rec["config"]["noise"] == 0.3 and "noise" not in saved
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**saved, "noise": 0.3}))
        for weights in (outdir / "weights.json", older):
            capsys.readouterr()
            assert main(["eval", str(prob), "--weights", str(weights)]) == 0
            got = strict_loads(capsys.readouterr().out)
            assert got == {"test_auc": rec["test_auc"], "test_mse": rec["test_mse"]}

    def test_train_pair_mode_param_count(self, tmp_path, capsys):
        code = main(["train", "--task", "member", "--n", "10", "--seed", "0",
                     "--epochs", "40", "--weight-mode", "pair"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["param_count"] == rec["n_clauses"] ** 2

    def test_train_epochs_zero_reports_initial_metrics(self, capsys):
        code = main(["train", "--task", "member", "--n", "10", "--seed", "0",
                     "--epochs", "0"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert 0.0 <= rec["test_auc"] <= 1.0

    def test_missing_weights_is_config_error(self, tmp_path, capsys):
        prob = tmp_path / "p.pl"
        main(["gen", "--task", "member", "--n", "5", "--out", str(prob)])
        code = main(["eval", str(prob), "--weights", str(tmp_path / "nope.json")])
        assert code == 2
        assert str(tmp_path / "nope.json") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "gen"])
    def test_unusable_path_exits_2_naming_it(self, command, tmp_path, capsys):
        # a directory where a file is read, a file where a directory is needed
        prob = tmp_path / "p.pl"
        main(["gen", "--task", "member", "--n", "5", "--out", str(prob)])
        argv, path = {
            "train": (["train", str(tmp_path)], tmp_path),
            "eval": (["eval", str(prob), "--weights", str(tmp_path)], tmp_path),
            "gen": (["gen", "--task", "member", "--out", str(prob / "x.pl")],
                    prob / "x.pl"),
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_closed_stdout_exits_141_quietly(self, tmp_path, monkeypatch, capsys):
        # stdout's reader has gone: a write raises, and main points the
        # stream's descriptor at devnull so the flush at exit cannot fail
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["train", "--task", "member", "--n", "5", "--epochs", "1"]) == 141
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_stdout_closed_by_the_parent_exits_141(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "softlog.cli", "train", "--task", "member",
             "--n", "5", "--epochs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # long before the child has trained and writes
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""

    @pytest.mark.parametrize("flag, value, message", [
        ("--split-frac", "1.5", "split_frac must be in (0, 1], got 1.5"),
        ("--split-frac", "0", "split_frac must be in (0, 1], got 0.0"),
        ("--noise", "1.5", "noise must be in [0, 1], got 1.5"),
        ("--noise", "-0.1", "noise must be in [0, 1], got -0.1"),
    ], ids=["split-frac-above", "split-frac-zero", "noise-above", "noise-below"])
    def test_bad_fraction_exits_2_naming_its_flag(self, flag, value, message, capsys):
        assert main(["train", "--task", "member", "--n", "5", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", [1.5, 0.0, -0.5])
    def test_bad_split_frac_entry_exits_2_naming_the_file(self, value, saved_member, capsys):
        prob, weights, saved = saved_member
        weights.write_text(json.dumps({**saved, "split_frac": value}))
        assert main(["eval", str(prob), "--weights", str(weights)]) == 2
        assert capsys.readouterr().err == (
            f"error: {weights}: weight file entry 'split_frac' must be in (0, 1], "
            f"got {value}\n"
        )

    def test_run_without_held_out_atoms(self, tmp_path, capsys, caplog):
        # --split-frac 1.0 leaves no test atoms: the test metrics are null in
        # every output, each output is strict JSON, and eval agrees with train
        prob, outdir = tmp_path / "m.pl", tmp_path / "sf1"
        main(["gen", "--task", "member", "--n", "10", "--seed", "1", "--out", str(prob)])
        capsys.readouterr()
        with caplog.at_level("INFO", logger="softlog.run"):
            assert main(["train", str(prob), "--epochs", "20", "--split-frac", "1.0",
                         "--out", str(outdir)]) == 0
        printed = strict_loads(capsys.readouterr().out.split("\nwrote ")[0])
        (line,) = [r.getMessage() for r in caplog.records if r.name == "softlog.run"]
        logged = strict_loads(line.removeprefix("run "))
        rec = strict_loads((outdir / "run.json").read_text())
        assert printed == logged
        assert printed["test_mse"] is printed["test_auc"] is None
        assert rec["test_mse"] is rec["test_auc"] is None
        assert 0.0 <= rec["train_auc"] <= 1.0
        assert main(["eval", str(prob), "--weights", str(outdir / "weights.json")]) == 0
        shown = strict_loads(capsys.readouterr().out)
        assert shown == {"test_auc": printed["test_auc"], "test_mse": printed["test_mse"]}

    @pytest.mark.parametrize("flags", [[], ["--split-frac", "1.0"]], ids=["held-out", "split-1"])
    def test_train_v_and_eval_print_the_run_record(self, flags, tmp_path, capsys, caplog):
        # train prints run.json without the loss samples, in its layout; the
        # -v line logs the same dict; eval prints run.json's test metrics
        outdir = tmp_path / "run"
        with caplog.at_level("INFO", logger="softlog.run"):
            assert main(["-v", "train", "--task", "member", "--n", "10", "--epochs", "20",
                         "--out", str(outdir), *flags]) == 0
        printed = capsys.readouterr().out.split("\nwrote ")[0]
        rec = strict_loads((outdir / "run.json").read_text())
        del rec["loss_samples"]
        assert printed == json.dumps(rec, indent=2, sort_keys=True)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "softlog.run"]
        assert strict_loads(line.removeprefix("run ")) == rec
        prob = tmp_path / "member.pl"
        assert main(["gen", "--task", "member", "--n", "10", "--out", str(prob)]) == 0
        capsys.readouterr()
        assert main(["eval", str(prob), "--weights", str(outdir / "weights.json")]) == 0
        shown = strict_loads(capsys.readouterr().out)
        assert shown == {"test_auc": rec["test_auc"], "test_mse": rec["test_mse"]}

    def test_nan_metric_exits_2(self, monkeypatch, capsys):
        # None marks a metric with nothing to score; a NaN is an error
        import softlog.run

        monkeypatch.setattr(softlog.run, "evaluate",
                            lambda *a: {"auc": float("nan"), "mse": float("nan")})
        assert main(["train", "--task", "member", "--n", "5", "--epochs", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: RunRecord.test_mse is nan, not a finite number\n"

    def test_non_finite_metric_is_refused_by_its_field(self, saved_member, monkeypatch,
                                                       capsys):
        # with logging off the run line is never formatted: the record refuses
        import softlog.run

        monkeypatch.setattr(softlog.run, "evaluate",
                            lambda *a: {"auc": float("inf"), "mse": 0.25})
        with pytest.raises(ValueError, match=r"^RunRecord.test_auc is inf, not a finite"):
            run_job(Job("member", n_per_class=5, train={"epochs": 1}))
        prob, weights, _ = saved_member
        assert main(["eval", str(prob), "--weights", str(weights)]) == 2
        assert capsys.readouterr().err == "error: test_auc is inf, not a finite number\n"

    @pytest.mark.parametrize("field, value, name", [
        ("confidences", [0.5, float("nan")], "confidences[1]"),
        ("loss_samples", [[0, 0.7], [1, float("-inf")]], "loss_samples[1]"),
    ])
    def test_record_refuses_a_non_finite_sample(self, member_result, field, value, name):
        with pytest.raises(ValueError, match=rf"^RunRecord.{re.escape(name)} is "):
            replace(member_result.record, **{field: value})

    def test_one_class_training_split_exits_2_before_the_beam(
        self, tmp_path, monkeypatch, capsys
    ):
        import softlog.run

        def no_beam(*a, **kw):
            raise AssertionError("beam search ran on a one-class training split")

        monkeypatch.setattr(softlog.run, "beam_search", no_beam)
        prob = tmp_path / "pos.pl"
        prob.write_text(
            "pred p/1.\nconst a. const b. const c.\ninit p(x).\n"
            "pos p(a).\npos p(b).\npos p(c).\n"
        )
        assert main(["train", str(prob), "--epochs", "5"]) == 2
        err = capsys.readouterr().err
        assert "no negative example" in err
        assert "split fraction 0.7" in err and "noise 0.0" in err

    @pytest.mark.parametrize("mode", ["multi", "pair"])
    def test_mismatched_weight_file_exits_2(self, mode, tmp_path, capsys):
        prob, outdir = tmp_path / "p.pl", tmp_path / "run"
        main(["gen", "--task", "member", "--n", "5", "--out", str(prob)])
        assert main(["train", str(prob), "--epochs", "5", "--weight-mode", mode,
                     "--out", str(outdir)]) == 0
        saved = json.loads((outdir / "weights.json").read_text())
        n = len(saved["clauses"])
        cases = {
            "mode": ({**saved, "mode": mode.title()},
                     f"weight mode must be 'multi' or 'pair', got '{mode.title()}'"),
            "dropped": ({**saved, "clauses": saved["clauses"][1:]},
                        f"do not fit the file's {n - 1} clauses"),
            "list": ([saved], "list.json: a weight file holds a JSON object"),
            "empty": ({**saved, "w": [[]], "clauses": []},
                      "empty.json: weights must cover at least one clause, got shape (1, 0)"),
            **{
                f"{key}-{type(value).__name__}": (
                    {**saved, key: value},
                    f"{key}-{type(value).__name__}.json: weight file entry {key!r} "
                    f"must be {want}, got {value!r}",
                )
                for key, value, want in (
                    ("clauses", 5, "list"), ("steps", "4", "int"), ("seed", "x", "int"),
                    ("seed", True, "int"), ("mode", 1, "str"), ("w", {}, "list"),
                    ("gamma", "0.1", "int or float"),
                    ("split_frac", False, "int or float"),
                )
            },
            "clause-types": ({**saved, "clauses": [1] * n},
                             "weight file entry 'clauses' must hold strings"),
            "seed": ({**saved, "seed": -1}, "TrainConfig.seed must be >= 0, got -1"),
            "steps": ({**saved, "steps": 255},
                      "TrainConfig.steps must be >= 1 and <= 254, got 255"),
            **{
                f"no-{key}": ({k: v for k, v in saved.items() if k != key},
                              f"no-{key}.json: weight file has no {key!r} entry")
                for key in ("clauses", "mode", "seed", "split_frac")
            },
        }
        for name, (payload, message) in cases.items():
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(payload))
            capsys.readouterr()
            assert main(["eval", str(prob), "--weights", str(bad)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("literal, message", [
        ("NaN", "NaN is not a finite number"),
        ("Infinity", "Infinity is not a finite number"),
        ("1e999", "1e999 is not a finite number"),
        ("1" + "0" * 400, "int too large to convert to float"),
    ], ids=["NaN", "Infinity", "float-overflow", "int-overflow"])
    def test_non_finite_weight_exits_2(self, literal, message, saved_member, capsys):
        prob, weights, saved = saved_member
        saved["w"][0][0] = "?"  # one entry of the multi-mode matrix
        weights.write_text(json.dumps(saved).replace('"?"', literal))
        assert main(["eval", str(prob), "--weights", str(weights)]) == 2
        assert capsys.readouterr().err == f"error: {weights}: {message}\n"

    @pytest.mark.parametrize("case, message", [
        ("null", "weight file entry 'w'[0][1] must be int or float, got None"),
        ("true", "weight file entry 'w'[0][1] must be int or float, got True"),
        ("string", "weight file entry 'w'[0][1] must be int or float, got '1.0'"),
        ("ragged", "weight file entry 'w'[1] must hold {n} numbers as 'w'[0] does, got {more}"),
    ], ids=["null", "true", "string", "ragged"])
    def test_weight_cell_that_is_no_number_exits_2(self, case, message, saved_member, capsys):
        prob, weights, saved = saved_member
        w = saved["w"]
        n = len(w[0])
        if case == "ragged":
            w[1].append(0.0)
        else:
            w[0][1] = {"null": None, "true": True, "string": "1.0"}[case]
        weights.write_text(json.dumps(saved))
        assert main(["eval", str(prob), "--weights", str(weights)]) == 2
        expected = message.format(n=n, more=n + 1)
        assert capsys.readouterr().err == f"error: {weights}: {expected}\n"

    @pytest.mark.parametrize("case", ["truncated", "clause", "brackets", "deep-w"])
    def test_unreadable_weight_file_exits_2_naming_it(self, case, saved_member, capsys):
        prob, weights, saved = saved_member
        message = "JSON nested too deep to read"  # deeper than the JSON reader recurses
        if case == "brackets":
            weights.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "deep-w":
            deep = "[" * 5000 + "]" * 5000
            weights.write_text(json.dumps({**saved, "w": "?"}).replace('"?"', deep))
        elif case == "truncated":
            cut = weights.read_text()[:9]
            weights.write_text(cut)
            with pytest.raises(json.JSONDecodeError) as parsed:
                json.loads(cut)
            message = str(parsed.value)
        else:  # a clause outside the problem's language
            n = len(saved["clauses"])
            clauses = [*saved["clauses"][1:], "app(x)"]
            weights.write_text(json.dumps({**saved, "clauses": clauses}))
            message = (
                f"weight file entry 'clauses'[{n - 1}]: line 1, column 1: "
                "undeclared predicate 'app'"
            )
        assert main(["eval", str(prob), "--weights", str(weights)]) == 2
        assert capsys.readouterr().err == f"error: {weights}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("pred p/1.\nconst a.\npos p(a).\nneg q(a).\n",
         "line 4, column 5: undeclared predicate 'q'"),
        ("pred p/1.\nfunc g/0.\nconst a.\npos p(a).\n",
         "line 2, column 6: function symbols have arity >= 1, found 'g/0'"),
    ], ids=["undeclared", "nullary-func"])
    def test_bad_problem_file_exits_2_naming_it(self, text, message, tmp_path, capsys):
        prob = tmp_path / "badp.pl"
        prob.write_text(text)
        assert main(["train", str(prob), "--epochs", "5"]) == 2
        assert capsys.readouterr().err == f"error: {prob}: {message}\n"

    @pytest.mark.parametrize("cls", ["pos", "neg"])
    def test_repeated_example_exits_2(self, cls, saved_member, tmp_path, capsys):
        # a repeat could be trained on and scored as held out, or carry both labels
        prob, weights, _ = saved_member
        problem = load_problem(prob)
        text = print_atom(problem.pos[0], problem.language)
        bad = tmp_path / "repeat.pl"
        bad.write_text(prob.read_text() + f"{cls} {text}.\n")
        n = len(problem.pos if cls == "pos" else problem.neg)
        message = f"error: {cls} {n} repeats pos 0: {text}\n"
        assert main(["train", str(bad), "--epochs", "0"]) == 2
        assert capsys.readouterr().err == message
        assert main(["eval", str(bad), "--weights", str(weights)]) == 2
        assert capsys.readouterr().err == message

    def test_gen_refuses_more_examples_than_the_task_has(self, tmp_path, capsys):
        # plus has 54 distinct positives at its default size
        out = tmp_path / "plus.pl"
        start = time.perf_counter()
        assert main(["gen", "--task", "plus", "--n", "60", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert "task plus found 54 distinct positive examples of the 60 asked for" in err
        assert not out.exists()

    def test_clamp_entry_of_older_weight_files(self, tmp_path, capsys):
        # older versions saved "clamp": false with an unclamped run's weights
        prob, outdir = tmp_path / "p.pl", tmp_path / "run"
        main(["gen", "--task", "member", "--n", "8", "--out", str(prob)])
        assert main(["train", str(prob), "--epochs", "30", "--out", str(outdir)]) == 0
        rec = json.loads((outdir / "run.json").read_text())
        saved = json.loads((outdir / "weights.json").read_text())
        assert "clamp" not in saved
        unclamped, clamped = tmp_path / "unclamped.json", tmp_path / "clamped.json"
        unclamped.write_text(json.dumps({**saved, "clamp": False}))
        clamped.write_text(json.dumps({**saved, "clamp": True}))
        capsys.readouterr()
        assert main(["eval", str(prob), "--weights", str(unclamped)]) == 0
        got = strict_loads(capsys.readouterr().out)
        assert got == {"test_auc": rec["test_auc"], "test_mse": rec["test_mse"]}
        assert main(["eval", str(prob), "--weights", str(clamped)]) == 2
        err = capsys.readouterr().err
        assert f"{clamped}: weight file entry 'clamp' must be false" in err

    def test_no_problem_is_config_error(self, capsys):
        assert main(["train"]) == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "bogus"])
        assert exc.value.code == 2

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--task", "member", "--axis", "nclause",
                     "--values", "5", "--seeds", "0", "--n", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nclause,seed,test_auc"
        assert len(lines) == 2

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--axis", "nclause", "--values", "4,2.5"], "whole numbers, got 2.5"),
        (["sweep", "--axis", "nclause", "--values", "0", "--method", "beam"],
         "max_clauses must be >= 1, got 0"),
        (["gen", "--n", "-5"], "TaskSpec.n_per_class must be >= 0, got -5"),
        (["gen", "--seed", "-1"], "TaskSpec.seed must be >= 0, got -1"),
    ], ids=["sweep-fraction", "sweep-beam-0", "gen-n", "gen-seed"])
    def test_bad_clause_budget_count_or_seed_exits_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--task", "member", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, entries, message", [
        ("--values", "0.1,a", "--values: could not convert string to float: 'a'"),
        ("--seeds", "0,x", "--seeds: invalid literal for int() with base 10: 'x'"),
    ], ids=["values", "seeds"])
    def test_sweep_bad_list_entry_names_its_flag(self, flag, entries, message, tmp_path,
                                                 capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--task", "member", "--axis", "noise", flag, entries]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweep_empty_seeds_error(self, tmp_path):
        code = main(["sweep", "--task", "member", "--axis", "noise",
                     "--seeds", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_sweep_empty_values_error(self, tmp_path, capsys):
        # an empty list is refused, not read as "the default grid"
        out = tmp_path / "x.csv"
        code = main(["sweep", "--task", "member", "--axis", "noise", "--values", "",
                     "--seeds", "0", "--n", "4", "--out", str(out)])
        assert code == 2
        assert "at least one value is required" in capsys.readouterr().err
        assert not out.exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "softlog.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "sweep" in proc.stdout

    def test_diverged_training_exits_3(self, monkeypatch, capsys):
        import softlog.run
        from softlog.training import TrainingDiverged

        def boom(*a, **kw):
            raise TrainingDiverged("non-finite loss at epoch 3")

        monkeypatch.setattr(softlog.run, "train", boom)
        code = main(["train", "--task", "member", "--n", "5", "--epochs", "5"])
        assert code == 3

    @pytest.mark.parametrize("mode", ["multi", "pair"])
    def test_zero_gamma_exits_2(self, mode, capsys):
        code = main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                     "--weight-mode", mode, "--gamma", "0"])
        assert code == 2
        assert "gamma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--m", "0", "m"), ("--epochs", "-5", "epochs"),
         ("--batch-frac", "0", "batch_frac"), ("--batch-frac", "-1", "batch_frac"),
         ("--lr", "-1", "lr"), ("--gamma", "0", "gamma"), ("--T", "0", "steps"),
         ("--T", "255", "steps"), ("--seed", "-1", "seed"),
         ("--gamma", "inf", "gamma"), ("--lr", "inf", "lr"),
         ("--gamma", "1e-320", "gamma")],
    )
    def test_bad_train_config_exits_2(self, flag, value, field, monkeypatch, capsys):
        import softlog.run

        def no_beam(*a, **kw):
            raise AssertionError("beam search ran before the config was checked")

        monkeypatch.setattr(softlog.run, "beam_search", no_beam)
        code = main(["train", "--task", "member", "--n", "5", flag, value])
        assert code == 2
        assert f"TrainConfig.{field} must" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["0", "-1", "255"])
    def test_bad_proof_depth_exits_2(self, depth, monkeypatch, capsys):
        # the beam's proof depth is T: a depth the prover refuses stops the run
        # before beam search, with the prover's own bound in the message
        import softlog.run

        def no_beam(*a, **kw):
            raise AssertionError("beam search ran with an invalid proof depth")

        monkeypatch.setattr(softlog.run, "beam_search", no_beam)
        with pytest.raises(ValueError):
            ProofConfig(int(depth))
        code = main(["train", "--task", "member", "--n", "5", "--T", depth])
        assert code == 2
        assert f"must be >= 1 and <= {MAX_HORIZON}" in capsys.readouterr().err

    def test_pair_tape_over_budget_exits_2(self, monkeypatch, capsys):
        from softlog import training

        monkeypatch.setattr(training, "TAPE_FLOATS", 1000)
        code = main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                     "--weight-mode", "pair"])
        assert code == 2
        assert "the limit is 1,000" in capsys.readouterr().err

    def test_multi_tape_over_budget_exits_2_before_the_weights(self, monkeypatch, capsys):
        from softlog.infer import WeightSet

        def no_weights(*args, **kwargs):
            raise AssertionError("weights were allocated for a refused run")

        monkeypatch.setattr(WeightSet, "random", staticmethod(no_weights))
        code = main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                     "--m", "1000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "multi mode would record up to" in err and "m=1000000000" in err
        assert "|C|=" in err and "the limit is 134,217,728" in err

    def test_grounding_over_budget_exits_2(self, monkeypatch, capsys):
        from softlog import grounding

        monkeypatch.setattr(grounding, "GROUND_CELLS", 50)
        code = main(["train", "--task", "member", "--n", "5", "--epochs", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "exceed 50 index tensor cells" in err and "|C|=" in err

    def test_run_json_records_the_run(self, tmp_path, capsys):
        def config(*flags):
            out = tmp_path / "-".join(flags or ("plain",))
            assert main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                         "--out", str(out), *flags]) == 0
            return json.loads((out / "run.json").read_text())["config"]

        plain = config()
        run_args = {"noise", "split_frac", "naive_n", "clause_cap"}
        settings = {f.name for c in (TrainConfig, BeamConfig)
                    for f in fields(c)} - {"seed"}
        assert set(plain) == settings | run_args
        assert (plain["noise"], plain["beam_size"]) == (0.0, 3)
        assert plain["clause_cap"] is None
        changed = config("--noise", "0.1", "--beam-size", "5")
        assert set(changed) == set(plain)
        assert changed["noise"] == 0.1
        assert changed["beam_size"] == 5

    @pytest.mark.parametrize("name", [f.name for c in (TrainConfig, BeamConfig)
                                      for f in fields(c) if f.name != "seed"])
    def test_every_setting_reaches_run_json_through_its_flag(self, name, tmp_path, capsys):
        # one flag per settable field, with a value other than member's default
        flag, text, value = {
            "m": ("--m", "3", 3), "steps": ("--T", "3", 3),
            "gamma": ("--gamma", "0.001", 0.001), "lr": ("--lr", "0.05", 0.05),
            "epochs": ("--epochs", "1", 1), "batch_frac": ("--batch-frac", "0.5", 0.5),
            "weight_mode": ("--weight-mode", "pair", "pair"),
            "beam_size": ("--beam-size", "2", 2), "beam_steps": ("--beam-steps", "2", 2),
            "n_body": ("--n-body", "2", 2), "n_nest": ("--n-nest", "2", 2),
        }[name]
        defaults = {**asdict(default_train_config("member")),
                    **asdict(default_beam_config("member"))}
        assert defaults[name] != value
        out = tmp_path / "run"
        assert main(["train", "--task", "member", "--n", "5", "--epochs", "0",
                     "--out", str(out), flag, text]) == 0
        assert json.loads((out / "run.json").read_text())["config"][name] == value

    def test_run_json_records_the_confidences(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                     "--out", str(out)]) == 0
        rec = json.loads((out / "run.json").read_text())
        assert len(rec["confidences"]) == len(rec["program"]) >= 1
        assert all(0 < c <= 1 for c in rec["confidences"])

    @pytest.mark.parametrize(
        "flags",
        [["--clamp"], ["--neg-penalty", "0.5"], ["--proof-depth", "3"], ["--prune-zero", "off"]],
        ids=["clamp", "neg-penalty", "proof-depth", "prune-zero"],
    )
    def test_removed_flags_are_unknown(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "member", "--n", "5", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_readme_lists_every_train_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Flags mirror the config fields: (.*?)\.\s", readme, re.S)
        listed = re.findall(r"`(--[\w-]+)", sentence.group(1))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {o for a in sub.choices["train"]._actions for o in a.option_strings}
        # train's own options: help, where the problem comes from, where to write
        assert sorted(listed) == sorted(options - {"-h", "--help", "--task", "--n", "--out"})

    def test_loose_init_clause_exits_2(self, tmp_path, capsys):
        prob = tmp_path / "loose.pl"
        prob.write_text(
            "pred p/1.\npred q/2.\nconst a. const b.\n"
            "init p(x) :- q(x,y).\nbg q(a,b).\npos p(a).\nneg p(b).\n"
        )
        assert main(["train", str(prob), "--epochs", "5"]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "not range-restricted" in err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at-bound", "deeper"])
    def test_term_nesting_bound_in_a_problem_file(self, extra, code, tmp_path, capsys):
        # terms as deep as the parser allows, in examples and in an init
        # clause, go through a whole run; one level deeper is refused at parse
        # time, naming its line
        from softlog.parser import MAX_TERM_DEPTH

        def nat(n, inner="0"):
            return "s(" * n + inner + ")" * n

        prob = tmp_path / "deep.pl"
        prob.write_text(
            "pred e/1.\nfunc s/1.\nconst 0.\ninit e(x).\nbg e(0).\n"
            + "".join(f"pos e({nat(n)}).\nneg e({nat(n + 1)}).\n" for n in range(2, 12, 2))
            + f"init e({nat(MAX_TERM_DEPTH, 'x')}).\n"
            + f"pos e({nat(MAX_TERM_DEPTH)}).\n"
            + f"neg e({nat(MAX_TERM_DEPTH - 1 + 2 * extra)}).\n"
        )
        assert main(["train", str(prob), "--epochs", "20"]) == code
        if code:
            err = capsys.readouterr().err
            assert f"line 18, column {7 + 2 * MAX_TERM_DEPTH}" in err
            assert f"nested deeper than {MAX_TERM_DEPTH}" in err

    def test_reloaded_task_keeps_its_defaults(self, tmp_path, capsys):
        prob, out = tmp_path / "plus.pl", tmp_path / "run"
        assert main(["gen", "--task", "plus", "--n", "4", "--out", str(prob)]) == 0
        assert main(["train", str(prob), "--epochs", "5", "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert (config["m"], config["steps"]) == (3, 8)

    def test_sweep_beam_method(self, tmp_path):
        out = tmp_path / "beam.csv"
        code = main(["sweep", "--task", "member", "--axis", "nclause",
                     "--values", "5", "--seeds", "0", "--n", "8",
                     "--method", "beam", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2
