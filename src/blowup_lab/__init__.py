"""blowup-lab: numerical laboratory for boundary blow-up solutions of
quasilinear equations div(Q(|grad u|) grad u) = f(u)."""

from .errors import (BlowupLabError, BracketError, ConfigError, DivergenceError,
                     DomainExceededError, ProfileDomainError, SolverError,
                     ValidationError)
from .harness import ExperimentConfig, ExperimentReport, compare_runs, run
from .ko import A5Report, KOReport, check_a5, classify, length_scale, phi, psi
from .ode1d import (Profile1D, dead_core_profile, decay_sweep, ell_of_v0,
                    eval_profile, large_profile, large_solution, v0_of_ell)
from .pde2d import (CrossSectionReport, DiscreteField, Grid2D, cross_section_compare,
                    escalate_m, grid_for_ell, residual, solve_dirichlet)
from .radial import (LocalBoundReport, RadialProfile, annulus_barrier,
                     ball_large_solution, blowup_radius, local_bound_check,
                     shoot_ball)
from .registry import Force, Operator, make_force, make_operator

__version__ = "0.1.0"

__all__ = [
    "A5Report", "BlowupLabError", "BracketError", "ConfigError",
    "CrossSectionReport", "DiscreteField", "DivergenceError", "DomainExceededError",
    "ExperimentConfig", "ExperimentReport", "Force", "Grid2D", "KOReport",
    "LocalBoundReport", "Operator", "Profile1D", "ProfileDomainError", "RadialProfile",
    "SolverError", "ValidationError", "annulus_barrier",
    "ball_large_solution", "blowup_radius", "check_a5", "classify", "compare_runs",
    "cross_section_compare", "dead_core_profile", "decay_sweep", "ell_of_v0",
    "escalate_m", "eval_profile", "grid_for_ell", "large_profile", "large_solution",
    "length_scale", "local_bound_check", "make_force", "make_operator", "phi", "psi", "residual",
    "run", "shoot_ball", "solve_dirichlet", "v0_of_ell",
]
