"""diffwave: 1-D laboratory for damped p-system dynamics and diffusion-wave decay."""

from .closures import (
    AssumptionReport,
    HyperbolicityError,
    ModelClosure,
    characteristic_speeds,
    check_assumptions,
    eddington_factor,
    gamma_law_closure,
    linear_closure,
    m1_closure,
    radiative_pressure_1d,
)
from .corrections import (
    CorrectionField,
    Mollifier,
    compute_shift_x0,
    eval_uhat,
    eval_vhat,
    make_mollifier,
    verify_correction_system,
)
from .diagnostics import (
    DiagnosticsSeries,
    PerturbationFields,
    RateFit,
    ResidualReport,
    build_fields,
    conserved_mass,
    field_norms,
    fit_decay_rate,
    residual_check,
    theorem_report,
)
from .diffusion_wave import (
    ProfileSolverError,
    TailFit,
    WaveProfile,
    eval_ubar,
    eval_vbar,
    flux_relation_check,
    solve_profile,
    verify_gaussian_tail,
)
from .solver import (
    BlowUpError,
    InitialDataError,
    PerturbationSpec,
    ScenarioSpec,
    SimState,
    build_initial_data,
    cfl_dt,
    heat_kernel,
    lagrangian_transform,
    run,
    step,
)

__version__ = "0.1.0"
