"""Robust pitch-channel autopilot toolbox.

Riccati-based H-infinity state-feedback synthesis, attenuation-level
search, H-infinity norm computation, and closed-loop simulation of a
launch vehicle's pitch channel with a rate-limited thrust-vector servo and
a rate gyro.
"""

from .care_solver import (
    BracketInvalid,
    CareProblem,
    HinfSolution,
    IndefiniteSolution,
    NoStabilizingSolution,
    NonFiniteGain,
    ShapeError,
    StateSpace,
    UnstableSystem,
    care_residual,
    gamma_search,
    hinf_norm,
    solve_care,
    solve_lqr,
)
from .controller import (
    ClosedLoopUnstable,
    ControllerGain,
    DesignPoint,
    calibrate_state_weight,
    design_point_t60,
    design_point_t100,
    gain_from_solution,
    implied_state_weight,
    synthesize,
)
from .simulator import (
    BUILTIN_SCENARIOS,
    DisturbanceSpec,
    Metrics,
    Noise,
    NonFiniteState,
    Ramp,
    Scenario,
    SimulationTrace,
    Sine,
    Step,
    SynthesisFailed,
    compute_metrics,
    scenario_paper_lti,
    scenario_paper_ltv,
    simulate,
)
from .vehicle_model import (
    CoefficientSchedule,
    CommandProfile,
    DynamicCoefficients,
    PlantModel,
    assemble_pitch_plant,
    coefficients_at,
    default_command_profile,
    default_schedule,
    load_coefficient_schedule,
    load_command_profile,
    pitch_terms,
)

__version__ = "0.1.0"
