"""Numerical laboratory for sup-gradient bounds of quasilinear parabolic systems.

Layout:
    regimes   exponent arithmetic and regime classification
    mesh      grids, fields, discrete calculus, cylinders, cutoffs, field files
    flux      flux families A(Q) and right-hand-side families f(x, t, u, grad u)
    solver    explicit marching with stability-limited steps and run records
    energy    cylinder energies, the energy inequality, the iteration chain,
              and the fitted-constant bound verifier
    verify    independent oracles: manufactured solutions, the x/|x| map,
              exact-rational ladder iteration
    cli       `gradbound` command-line entry point
"""

from .regimes import (
    ExponentLadder,
    ProblemParams,
    RegimeReport,
    Theorem,
    bound_exponent,
    build_ladder,
    check_thm2,
    check_thm3,
    classify_thm1,
    compute_M_general,
    kappa,
    plaplace_window,
    thm1_case2_sup,
)
from .mesh import (
    Boundary,
    CutoffFn,
    CylinderSpec,
    Field,
    Grid,
    ball_mask,
    ball_volume,
    divergence,
    grad_magnitude,
    gradient,
    load_field,
    node_coords,
    save_field,
)
from .flux import (
    FluxKind,
    FluxSpec,
    RhsKind,
    RhsSpec,
    flux_eval,
    flux_jacobian_bounds,
    rhs_eval,
)
from .solver import (
    Prescribed,
    RandomSmooth,
    RunRecord,
    RunStatus,
    SolveConfig,
    StatusKind,
    initial_field,
    load_run,
    run,
    save_run,
)
from .energy import (
    BoundReport,
    EnergyReport,
    MoserChainReport,
    SandwichReport,
    energy_inequality_check,
    holder_sandwich_check,
    moser_chain_check,
    psi,
    verify_bound,
)
from .verify import (
    ResidualReport,
    SeparableTarget,
    ladder_oracle,
    manufactured_problem,
    struwe_field,
    struwe_residual,
    struwe_rhs_exact,
)

__version__ = "0.1.0"
