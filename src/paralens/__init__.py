"""Parametrised lenses over finite and smooth carriers.

Two instantiations share one core.  Over numeric carriers the library
differentiates computation graphs in reverse mode and expresses training
loops, including adversarial ones, as lens composition.  Over finite
carriers it assembles normal-form games from per-player decisions and
solves them with selection relations, with exact rational payoffs.
"""

from .checks import ALL_CHECKS, CheckResult, run_checks
from .demos import DEMOS, TrainResult, run_gan, run_linreg, run_mlp, write_csv
from .errors import (
    CompositionError,
    NumericError,
    ParalensError,
    SizeCapError,
    SpecFormatError,
    UnsupportedOperationError,
)
from .finite_base import (
    FINITE,
    FinFn,
    FinProd,
    FinSet,
    FiniteBase,
    UNIT_LABEL,
    UNIT_SET,
    enumerate_functions,
    finset_tuple_product,
    parse_payoff,
    payoff_grid,
    payoff_label,
    split_tuple,
    tuple_label,
)
from .lens_core import (
    Base,
    Lens,
    LensObj,
    costate_fn,
    describe_obj,
    get_put_lens,
    lens_assoc,
    lens_assoc_inv,
    lens_compose,
    lens_equal,
    lens_id,
    lens_interchange,
    lens_lunit,
    lens_lunit_inv,
    lens_runit,
    lens_runit_inv,
    lens_swap,
    lens_tensor,
    make_costate,
    make_state,
    obj_pair,
    unit_obj,
)
from .para_optic import (
    ParaLens,
    embed_trivial,
    flatten_params,
    para_compose,
    para_costate_solution_input,
    para_tensor,
    reparametrise,
)
from .selection_games import (
    NormalFormGame,
    OpenGame,
    SelectionRelation,
    argmax_rel,
    brute_force_hicks,
    brute_force_nash,
    compositional_game,
    context,
    decision,
    equilibria,
    game_scalar,
    hicks_games,
    is_sel_morphism,
    nash_product,
    normal_form_game,
    open_game,
    profile_values,
    relation_subset,
    relations_equal,
    sel_pushforward,
    solution_set,
    sum_of_payoffs_lens,
    total_rel,
)
from .smooth_autodiff import (
    GraphBuilder,
    Node,
    PRIMITIVES,
    Primitive,
    SMOOTH,
    SmoothBase,
    SmoothFn,
    SmoothMap,
    Tape,
    Wire,
    apply_R,
    backward_eval,
    compose_maps,
    copy_lens,
    forward_eval,
    ga_lens,
    gan_model,
    gan_step,
    gd_lens,
    mlp_map,
    sqerr_head,
    train_step,
    unit_loss_costate,
)

__version__ = "0.1.0"
