import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from softlog.cli import main
from softlog.datasets import TaskSpec, generate, load_problem
from softlog.grounding import convert_background, ground_context
from softlog.refine import RefinementConfig
from softlog.run import (
    default_beam_config,
    default_train_config,
    evaluate_saved,
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
    problem = generate(TaskSpec("member", n_per_class=12, seed=0))
    tc = default_train_config("member", seed=0, **FAST)
    bc = default_beam_config("member")
    return run_problem(problem, tc, bc)


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
        problem = generate(TaskSpec("member", n_per_class=12, seed=0))
        tc = default_train_config("member", seed=0, **FAST)
        bc = default_beam_config("member")
        a = run_problem(problem, tc, bc).record
        b = run_problem(problem, tc, bc).record
        assert a.loss_samples == b.loss_samples
        assert a.test_mse == b.test_mse
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("runtime_s"), db.pop("runtime_s")
        assert da == db

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
            v0 = convert_background(train_p.background, ctx.atoms)
            return predictions(held_out, ctx, v0, member_result.weights, steps, gamma)

        assert len(g_eval) < len(g_both)
        assert np.array_equal(scores(g_eval), scores(g_both))
        assert got == metrics(scores(g_both), [y for _, y in test_labels])

    def test_saved_weights_reproduce_metrics(self, member_result, tmp_path):
        wpath = tmp_path / "weights.json"
        save_weights(wpath, member_result)
        m = evaluate_saved(member_result.problem, wpath)
        assert m["mse"] == member_result.record.test_mse
        assert m["auc"] == member_result.record.test_auc

    def test_clamped_run_reports_clamped_metrics(self, tmp_path):
        from softlog.datasets import split
        from softlog.run import evaluate
        from softlog.training import make_labels, metrics, predictions

        problem = generate(TaskSpec("member", n_per_class=12, seed=0))
        tc = default_train_config("member", seed=0, clamp=True, **FAST)
        res = run_problem(problem, tc, default_beam_config("member"))
        train_p, test_labels = split(problem, 0.7, 0)
        ctx = ground_context(train_p, res.clauses, tc.steps)
        v0 = convert_background(train_p.background, ctx.atoms)
        atoms, ys = zip(*make_labels(train_p))

        def train_mse(clamp):
            scores = predictions(atoms, ctx, v0, res.weights, tc.steps, tc.gamma, clamp)
            return metrics(scores, ys)["mse"]

        # the clamp changes the valuations of this model, so the check bites
        assert train_mse(True) != train_mse(False)
        assert res.record.train_mse == train_mse(True)
        recorded = {"auc": res.record.test_auc, "mse": res.record.test_mse}
        args = (train_p, res.clauses, res.weights, test_labels, tc.steps, tc.gamma)
        assert evaluate(*args, clamp=True) == recorded
        assert evaluate(*args) != recorded

        wpath = tmp_path / "weights.json"
        save_weights(wpath, res)
        assert evaluate_saved(problem, wpath) == recorded
        # a file saved before the clamp was stored loads as unclamped
        payload = json.loads(wpath.read_text())
        del payload["clamp"]
        wpath.write_text(json.dumps(payload))
        assert evaluate_saved(problem, wpath) == evaluate(*args)

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


def _cell(seed, metric, **kw):
    """One sweep cell run directly: the sweep's problem, default configs and
    epochs=60."""
    problem = generate(TaskSpec("member", n_per_class=10, seed=seed))
    tc = default_train_config("member", seed=seed, epochs=60)
    record = run_problem(problem, tc, default_beam_config("member"), **kw).record
    return getattr(record, metric)


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
        with pytest.raises(ValueError):
            sweep("member", "noise", [0.1], [])


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
        assert shown["mse"] == rec["test_mse"]

    def test_train_pair_mode_param_count(self, tmp_path, capsys):
        code = main(["train", "--task", "member", "--n", "10", "--seed", "0",
                     "--epochs", "40", "--weight-mode", "pair"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["params"] == rec["n_clauses"] ** 2

    def test_train_epochs_zero_reports_initial_metrics(self, capsys):
        code = main(["train", "--task", "member", "--n", "10", "--seed", "0",
                     "--epochs", "0"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert 0.0 <= rec["auc"] <= 1.0

    def test_missing_weights_is_config_error(self, tmp_path, capsys):
        prob = tmp_path / "p.pl"
        main(["gen", "--task", "member", "--n", "5", "--out", str(prob)])
        code = main(["eval", str(prob), "--weights", str(tmp_path / "nope.json")])
        assert code == 2
        assert str(tmp_path / "nope.json") in capsys.readouterr().err

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
        assert printed["test_mse"] is printed["auc"] is None
        assert rec["test_mse"] is rec["test_auc"] is None
        assert 0.0 <= rec["train_auc"] <= 1.0
        assert main(["eval", str(prob), "--weights", str(outdir / "weights.json")]) == 0
        shown = strict_loads(capsys.readouterr().out)
        assert shown == {"auc": printed["auc"], "mse": printed["test_mse"]}

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
            **{
                f"{key}-{type(value).__name__}": (
                    {**saved, key: value},
                    f"{key}-{type(value).__name__}.json: weight file entry {key!r} "
                    f"must be {want}, got {value!r}",
                )
                for key, value, want in (
                    ("clauses", 5, "list"), ("steps", "4", "int"), ("seed", "x", "int"),
                    ("seed", True, "int"), ("mode", 1, "str"), ("w", {}, "list"),
                    ("gamma", "0.1", "int or float"), ("noise", None, "int or float"),
                    ("split_frac", False, "int or float"), ("clamp", "no", "bool"),
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

    def test_sweep_empty_seeds_error(self, tmp_path):
        code = main(["sweep", "--task", "member", "--axis", "noise",
                     "--seeds", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "softlog.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "sweep" in proc.stdout

    def test_diverged_training_exits_3(self, monkeypatch, capsys):
        from softlog import cli
        from softlog.training import TrainingDiverged

        def boom(*a, **kw):
            raise TrainingDiverged("non-finite loss at epoch 3")

        monkeypatch.setattr(cli, "run_problem", boom)
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
         ("--T", "255", "steps"), ("--seed", "-1", "seed")],
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
        # 0 is a given depth, not a missing one: it must not fall back to T
        import softlog.run

        def no_beam(*a, **kw):
            raise AssertionError("beam search ran with an invalid proof depth")

        monkeypatch.setattr(softlog.run, "beam_search", no_beam)
        code = main(["train", "--task", "member", "--n", "5", "--proof-depth", depth])
        assert code == 2
        assert "max_depth must be >= 1" in capsys.readouterr().err

    def test_pair_tape_over_budget_exits_2(self, monkeypatch, capsys):
        from softlog import training

        monkeypatch.setattr(training, "PAIR_TAPE_FLOATS", 1000)
        code = main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                     "--weight-mode", "pair"])
        assert code == 2
        assert "the limit is 1,000" in capsys.readouterr().err

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
        run_args = {"noise", "split_frac", "naive_n", "clause_cap", "proof_depth"}
        settings = {f.name for c in (TrainConfig, BeamConfig, RefinementConfig)
                    for f in fields(c)} - {"seed"}
        assert set(plain) == settings | run_args
        assert (plain["clamp"], plain["neg_penalty"]) == (False, 0.0)
        assert plain["proof_depth"] == plain["steps"]
        assert plain["clause_cap"] is None
        changed = config("--clamp", "--neg-penalty", "0.5", "--proof-depth", "3")
        assert (changed["clamp"], changed["neg_penalty"]) == (True, 0.5)
        assert changed["proof_depth"] == 3

    def test_run_json_records_the_confidences(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--task", "member", "--n", "5", "--epochs", "5",
                     "--out", str(out)]) == 0
        rec = json.loads((out / "run.json").read_text())
        assert len(rec["confidences"]) == len(rec["program"]) >= 1
        assert all(0 < c <= 1 for c in rec["confidences"])

    def test_extension_flags_accepted(self, capsys):
        code = main(["train", "--task", "member", "--n", "8", "--seed", "0",
                     "--epochs", "30", "--clamp", "--neg-penalty", "0.5",
                     "--proof-depth", "3", "--prune-zero", "off"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["task"] == "member"

    def test_loose_init_clause_exits_2(self, tmp_path, capsys):
        prob = tmp_path / "loose.pl"
        prob.write_text(
            "pred p/1.\npred q/2.\nconst a. const b.\n"
            "init p(x) :- q(x,y).\nbg q(a,b).\npos p(a).\nneg p(b).\n"
        )
        assert main(["train", str(prob), "--epochs", "5"]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "not range-restricted" in err

    def test_reloaded_task_keeps_its_defaults(self, tmp_path):
        from softlog.cli import _configs, _resolve_problem, build_parser

        prob = tmp_path / "plus.pl"
        assert main(["gen", "--task", "plus", "--n", "4", "--out", str(prob)]) == 0
        args = build_parser().parse_args(["train", str(prob)])
        _, task = _resolve_problem(args)
        tc, _, _ = _configs(args, task)
        assert (tc.m, tc.steps) == (3, 8)

    def test_sweep_beam_method(self, tmp_path):
        out = tmp_path / "beam.csv"
        code = main(["sweep", "--task", "member", "--axis", "nclause",
                     "--values", "5", "--seeds", "0", "--n", "8",
                     "--method", "beam", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2
