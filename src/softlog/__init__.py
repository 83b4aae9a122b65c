"""softlog: learning definite logic programs with function symbols from noisy
examples, by beam-searched clause refinement plus differentiable forward
chaining."""

from .logic import (
    Atom,
    Clause,
    Const,
    Func,
    Language,
    Term,
    Var,
    apply_subst,
    canonical,
    unify,
)
from .parser import (
    ParseError,
    parse_atom,
    parse_clause,
    parse_problem,
    parse_term,
    print_atom,
    print_clause,
    print_term,
)
from .problem import ILPProblem
from .refine import RefinementConfig, refine, rho_add, rho_fun, rho_rep, rho_sub
from .prover import ProofConfig, entails
from .search import BeamConfig, beam_search, naive_generate
from .grounding import (
    GroundContext,
    build_index_tensor,
    context_from_atoms,
    convert_background,
    enumerate_atoms,
    ground_context,
)
from .infer import WeightSet, backward, infer, softor
from .training import (
    LearnedProgram,
    TrainConfig,
    TrainingDiverged,
    auc,
    extract_program,
    make_labels,
    metrics,
    mse,
    train,
)
from .datasets import (
    TASKS,
    TaskSpec,
    generate,
    inject_noise,
    load_problem,
    save_problem,
    split,
)
from .run import RunRecord, run_problem, sweep

__version__ = "0.1.0"
