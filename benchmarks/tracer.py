"""Spans and counts recorded around calls into softlog's public functions.

Nothing here edits the library: every probe replaces a module attribute for
the duration of a ``with`` block and puts the original back afterwards.  A
function is patched where its caller looks it up, e.g. ``run_problem`` calls
``softlog.run.beam_search``, so that is the attribute that gets wrapped.
"""
from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import softlog.datasets
import softlog.grounding
import softlog.prover
import softlog.run
import softlog.search
import softlog.training

PARENT_NONE = -1


@contextmanager
def patched(targets):
    """Replace ``(module, attr) -> wrapper-factory`` for the block's duration."""
    saved = []
    try:
        for (module, attr), make in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Capture:
    """What the checks need from inside a pass: the groundings built and the
    held-out scores predicted.  A few wrapped calls per job, so it costs
    nothing measurable and stays on in untraced passes."""

    def __init__(self):
        self.contexts = []  # (ctx, built inside run.evaluate?)
        self.scores = []  # predictions returned inside run.evaluate
        self._in_evaluate = False

    def reset(self):
        self.contexts.clear()
        self.scores.clear()

    def _ground_context(self, fn):
        def wrapper(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            self.contexts.append((ctx, self._in_evaluate))
            return ctx

        return wrapper

    def _predictions(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._in_evaluate:
                self.scores.append(out)
            return out

        return wrapper

    def _evaluate(self, fn):
        def wrapper(*args, **kwargs):
            self._in_evaluate = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_evaluate = False

        return wrapper

    def installed(self):
        return patched(
            [
                ((softlog.run, "ground_context"), self._ground_context),
                ((softlog.run, "predictions"), self._predictions),
                ((softlog.run, "evaluate"), self._evaluate),
            ]
        )


class Tracer:
    """Spans (name, start, end, parent span) at each layer boundary plus
    call counts at the hot symbolic boundaries, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else PARENT_NONE]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self.counts, out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself (a job, a set-up round)."""
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else PARENT_NONE]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def installed(self):
        def candidates(counts, out):
            counts["search.candidates"] += len(out)

        def refinements(counts, out):
            counts["refine.refinements"] += len(out)

        def grounded(counts, ctx):
            counts["grounding.atoms"] += len(ctx)
            counts["grounding.tensor_cells"] += int(ctx.x.size)

        def trained(counts, out):
            counts["training.epochs"] += len(out[1])

        s, c = self.span, self.counted
        return patched(
            [
                ((softlog.run, "beam_search"), lambda f: s("search.beam_search", f, candidates)),
                ((softlog.search, "refine"), lambda f: s("refine.refine", f, refinements)),
                ((softlog.search, "eval_counts"), lambda f: s("prover.eval_counts", f)),
                ((softlog.prover, "unify"), lambda f: c("prover.unify_calls", f)),
                ((softlog.prover, "apply_subst"), lambda f: c("prover.apply_subst_calls", f)),
                ((softlog.run, "ground_context"), lambda f: s("grounding.ground_context", f, grounded)),
                ((softlog.grounding, "enumerate_atoms"), lambda f: s("grounding.enumerate_atoms", f)),
                ((softlog.grounding, "build_index_tensor"), lambda f: s("grounding.build_index_tensor", f)),
                ((softlog.grounding, "unify"), lambda f: c("grounding.unify_calls", f)),
                ((softlog.grounding, "apply_subst"), lambda f: c("grounding.apply_subst_calls", f)),
                ((softlog.run, "train"), lambda f: s("training.train", f, trained)),
                ((softlog.training, "infer"), lambda f: s("infer.infer", f)),
                ((softlog.training, "backward"), lambda f: s("infer.backward", f)),
                ((softlog.run, "evaluate"), lambda f: s("run.evaluate", f)),
                ((softlog.datasets, "generate"), lambda f: s("datasets.generate", f)),
            ]
        )

    # -- reading the trace back -------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        own = {i for i, rec in enumerate(self.spans) if rec[0] == name}
        children = sum(
            end - start for _, start, end, parent in self.spans if parent in own
        )
        return sum(self.spans[i][2] - self.spans[i][1] for i in own) - children

    def per_parent_total(self, parent_name: str, name: str) -> list[float]:
        """For each span called ``parent_name``, the summed duration of its
        direct children called ``name``."""
        sums = {i: 0.0 for i, rec in enumerate(self.spans) if rec[0] == parent_name}
        for n, start, end, parent in self.spans:
            if n == name and parent in sums:
                sums[parent] += end - start
        return list(sums.values())


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """The per-layer metrics, as (value, unit), of one traced pass of
    ``jobs`` jobs plus the traced set-up rounds before it."""
    t, n = tracer, tracer.counts
    train_s = t.total("training.train")
    epochs = n["training.epochs"]
    return {
        "search.beam_s": (t.total("search.beam_search"), "s"),
        "search.clauses_scored": (len(t.durations("prover.eval_counts")), "count"),
        "search.candidates": (n["search.candidates"], "count"),
        "refine.refine_s": (t.total("refine.refine"), "s"),
        "refine.refinements": (n["refine.refinements"], "count"),
        "prover.eval_counts_s": (t.total("prover.eval_counts"), "s"),
        "prover.unify_calls": (n["prover.unify_calls"], "count"),
        "prover.apply_subst_calls": (n["prover.apply_subst_calls"], "count"),
        "grounding.enumerate_s": (t.total("grounding.enumerate_atoms"), "s"),
        "grounding.tensor_s": (t.total("grounding.build_index_tensor"), "s"),
        "grounding.atoms": (n["grounding.atoms"], "count"),
        "grounding.tensor_cells": (n["grounding.tensor_cells"], "count"),
        "grounding.unify_calls": (n["grounding.unify_calls"], "count"),
        "grounding.apply_subst_calls": (n["grounding.apply_subst_calls"], "count"),
        "grounding.groundings_per_job": (
            len(t.durations("grounding.ground_context")) / jobs, "count/job"
        ),
        "infer.forward_ms": (1e3 * median_or_zero(t.durations("infer.infer")), "ms"),
        "infer.backward_ms": (1e3 * median_or_zero(t.durations("infer.backward")), "ms"),
        "infer.calls": (len(t.durations("infer.infer")), "count"),
        "training.train_s": (train_s, "s"),
        "training.ms_per_epoch": (1e3 * train_s / epochs if epochs else 0.0, "ms"),
        "training.epochs": (epochs, "count"),
        "run.evaluate_s": (t.total("run.evaluate"), "s"),
        "run.other_s": (t.self_time("job"), "s"),
        "datasets.generate_s": (
            median_or_zero(t.per_parent_total("setup", "datasets.generate")),
            "s",
        ),
    }
