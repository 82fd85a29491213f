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

The package names load on first use: `import gradbound` imports no module
above, and `gradbound.run` (or `from gradbound import run`) imports its
home module, here `solver`, and numpy with it.
"""

import importlib

# home module -> the names the package gives from it
_EXPORTS = {
    "regimes": ("ExponentLadder", "ProblemParams", "RegimeReport", "Theorem", "bound_exponent",
                "build_ladder", "check_thm2", "check_thm3", "classify_thm1",
                "compute_M_general", "kappa", "thm1_case2_sup"),
    "mesh": ("Boundary", "CutoffFn", "CylinderSpec", "Field", "Grid", "ball_mask", "divergence",
             "grad_magnitude", "gradient", "load_field", "node_coords", "save_field"),
    "flux": ("FluxKind", "FluxSpec", "RhsKind", "RhsSpec", "flux_eval", "flux_jacobian_bounds",
             "rhs_eval"),
    "solver": ("Prescribed", "RandomSmooth", "RunRecord", "RunStatus", "SolveConfig",
               "StatusKind", "initial_field", "load_run", "run", "save_run"),
    "energy": ("BoundReport", "EnergyReport", "MoserChainReport", "SandwichReport",
               "energy_inequality_check", "holder_sandwich_check", "moser_chain_check", "psi",
               "verify_bound"),
    "verify": ("ResidualReport", "SeparableTarget", "ladder_oracle", "manufactured_problem",
               "struwe_field", "struwe_residual"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
