"""ILP problem instances: examples, background knowledge, language, seeds."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .logic import Atom, Clause, Language


@dataclass(frozen=True)
class ILPProblem:
    """Positive/negative ground examples, background facts, a language, and
    the initial clauses the refinement search grows from."""

    pos: Tuple[Atom, ...]
    neg: Tuple[Atom, ...]
    background: Tuple[Atom, ...]
    language: Language
    initial_clauses: Tuple[Clause, ...] = ()
    name: str = ""

    def __post_init__(self):
        for group, atoms in (("pos", self.pos), ("neg", self.neg), ("bg", self.background)):
            for a in atoms:
                if not a.ground:
                    raise ValueError(f"{group} example must be ground: {a!r}")

    @property
    def examples(self) -> Tuple[Atom, ...]:
        return self.pos + self.neg

    def with_examples(self, pos, neg) -> "ILPProblem":
        return replace(self, pos=tuple(pos), neg=tuple(neg))
