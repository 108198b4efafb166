"""Distributionally robust binary linear classification under Wasserstein ambiguity."""

from .analytic import (
    UniformModel,
    closed_form_minimizer,
    f_epsilon,
    label_flip_balance,
    origin_directional_derivatives,
    scan_stationary_points,
    stationarity_residual,
)
from .dataset import (
    CsvFormatError,
    Dataset,
    flip_labels,
    generate_separable,
    inject_adversarial,
    load_csv,
    save_csv,
)
from .dro import (
    CvarRadius,
    WorstCaseResult,
    check_chance_cvar,
    cvar_distance,
    cvar_radius,
    worst_case_prob_dual,
    worst_case_prob_knapsack,
)
from .geometry import (
    GeneralizedMargin,
    Hyperplane,
    MarginProfile,
    distances,
    generalized_margin,
    margin_profile,
    sin_angle,
)
from .losses import (
    LossKind,
    LossSpec,
    ramp,
    smoothed_hinge,
    smoothed_hinge_deriv,
    smoothed_ramp,
    smoothed_ramp_deriv,
)
from .objective import (
    DroVariables,
    ObjectiveSpec,
    RegKind,
    evaluate,
    evaluate_with_gradient,
    imputed_epsilon,
    objective_function,
    to_dro_variables,
)
from .solve import (
    MultiStartReport,
    SolveOptions,
    SolveReport,
    minimize,
    multistart,
)

__version__ = "0.1.0"
