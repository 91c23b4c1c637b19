"""H-infinity tracking controller for the pitch channel.

Synthesis freezes the plant at a design time, solves the Riccati equation
at the chosen attenuation level, and extracts the state-feedback gain
K = B' X; the control law is u = -K x with x = [int_e, e, v_z].  The gain
is then applied unchanged to the time-varying plant (one operating point,
time-varying evaluation).

Two design points ship as defaults: the 100 s coefficients with gamma = 7.8
and the 60 s coefficients with gamma = 20, mirroring the published study
this package reproduces.  The study never states the state weighting used
inside the Riccati equation; see ``calibrate_state_weight`` and
``implied_state_weight`` for the honest reconstruction attempt, and the
README for why the published solution matrices cannot be reproduced by any
single shipped weighting.  The shipped default weights the measured output
only (C_perf = [0 1 0]), which is feasible at both published design points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .care_solver import CareProblem, HinfSolution, ShapeError, care_residual, solve_care
from .care_solver import _residual, _riccati_g
from .vehicle_model import (
    PITCH_COEFFS_T60,
    PITCH_COEFFS_T100,
    DynamicCoefficients,
    PlantModel,
    assemble_pitch_plant,
)

__all__ = [
    "DesignPoint",
    "ControllerGain",
    "ClosedLoopUnstable",
    "MEASUREMENT_WEIGHT",
    "REFERENCE_X_T100",
    "REFERENCE_X_T60",
    "REFERENCE_GAIN_T60",
    "gain_from_solution",
    "synthesize",
    "design_point_t100",
    "design_point_t60",
    "implied_state_weight",
    "calibrate_state_weight",
    "CalibrationResult",
]


class ClosedLoopUnstable(RuntimeError):
    """A - B K has an eigenvalue with non-negative real part."""


#: Default performance weighting: penalize the measured output (the tracking
#: error) only.  Read-only; a DesignPoint holds its own copy.
MEASUREMENT_WEIGHT = PlantModel.C_meas

# Solution matrices and gain printed in the published study (4 decimals as
# printed there).  Kept as comparison fixtures for the reproduce-paper
# report and the pure-arithmetic gain checks; not used in synthesis.
REFERENCE_X_T100 = np.array(
    [
        [63.3031, 0.6819, 0.034],
        [0.6819, 1.8298, -0.0002],
        [0.034, -0.0002, 0.0000],
    ]
)
REFERENCE_X_T60 = np.array(
    [
        [25.4427, 0.7938, 0.0405],
        [0.7938, 0.809, 0.0013],
        [0.0405, 0.0013, 0.0001],
    ]
)
REFERENCE_GAIN_T60 = np.array([1.4141, 1.5804, 0.0024])


@dataclass
class DesignPoint:
    """Frozen synthesis data: design time, attenuation level, coefficients, weighting.

    C_perf (default MEASUREMENT_WEIGHT) is copied: the design point owns it.
    """

    t_design: float
    gamma: float
    coeffs: DynamicCoefficients
    C_perf: np.ndarray | None = None

    def __post_init__(self):
        self.gamma = float(self.gamma)
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        C_perf = MEASUREMENT_WEIGHT if self.C_perf is None else self.C_perf
        self.C_perf = np.array(C_perf, dtype=float, ndmin=2)
        if self.C_perf.shape[1] != 3:
            raise ShapeError("C_perf must have 3 columns (state weighting)")


@dataclass
class ControllerGain:
    """State-feedback gain row; the minus sign lives in the control law."""

    K: np.ndarray

    def __post_init__(self):
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if not np.all(np.isfinite(self.K)):
            raise ValueError("gain entries must be finite")


def design_point_t100(gamma: float = 7.8, C_perf=None) -> DesignPoint:
    """Shipped design point at 100 s of flight (time-varying experiment)."""
    return DesignPoint(t_design=100.0, gamma=gamma, coeffs=PITCH_COEFFS_T100, C_perf=C_perf)


def design_point_t60(gamma: float = 20.0, C_perf=None) -> DesignPoint:
    """Shipped design point at 60 s of flight (frozen-plant experiment)."""
    return DesignPoint(t_design=60.0, gamma=gamma, coeffs=PITCH_COEFFS_T60, C_perf=C_perf)


def gain_from_solution(B, X) -> ControllerGain:
    """K = B' X, a pure matrix product."""
    B = np.asarray(B, dtype=float)
    X = np.asarray(X, dtype=float)
    if B.ndim != 2 or B.shape != (X.shape[0], B.shape[1]):
        raise ShapeError(f"B must be {X.shape[0]}xm, got {B.shape}")
    if X.shape[0] != X.shape[1]:
        raise ShapeError(f"X must be square, got {X.shape}")
    return ControllerGain(K=B.T @ X)


def synthesize(design: DesignPoint) -> tuple[HinfSolution, ControllerGain]:
    """Solve the Riccati equation at the design point and extract the gain.

    The closed-loop matrix A - B K is verified Hurwitz on the solution's
    closed_loop_eigs; a weighting that leaves unstable modes unweighted can
    produce a valid Riccati solution whose feedback loop is nevertheless
    unstable, which is reported as ClosedLoopUnstable rather than silently
    returned.
    """
    plant = assemble_pitch_plant(design.coeffs)
    problem = CareProblem(
        A=plant.A, B=plant.B, B_w=plant.B_w, C=design.C_perf, gamma=design.gamma
    )
    solution = solve_care(problem)
    gain = ControllerGain(K=solution.K.copy())
    max_real = float(solution.closed_loop_eigs.real.max())
    if max_real >= 0.0:
        raise ClosedLoopUnstable(
            f"A - B K has an eigenvalue with real part {max_real:.3g} >= 0"
        )
    return solution, gain


def implied_state_weight(A, B, B_w, gamma: float, X_ref) -> tuple[np.ndarray, float]:
    """Best PSD state weighting for which X_ref solves the Riccati equation.

    Rearranging the equation, the required C'C is
    -(X A + A' X - X (BB' - gamma^-2 BwBw') X); projecting that onto the
    PSD cone (eigenvalue clipping) minimizes the equation residual over all
    weightings.  Returns the factor C (rows sqrt(lam_i) v_i') and the
    residual of X_ref under it.

    A diagnostic for reconstructing unpublished weightings from a published
    solution matrix; see the module docstring for its limits.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    B_w = np.asarray(B_w, dtype=float)
    X_ref = np.asarray(X_ref, dtype=float)
    G = _riccati_g(B @ B.T, B_w @ B_w.T, gamma)
    required = -_residual(A, G, -0.0, X_ref)  # Q = -0.0 adds nothing, not even to a zero's sign
    required = 0.5 * (required + required.T)
    lam, vec = np.linalg.eigh(required)
    keep = lam > 1e-12 * max(1.0, float(lam.max(initial=0.0)))
    C = np.sqrt(lam[keep])[:, None] * vec.T[keep]
    if C.size == 0:
        C = np.zeros((1, A.shape[0]))
    return C, float(np.linalg.norm(_residual(A, G, C.T @ C, X_ref), "fro"))


@dataclass(frozen=True)
class CalibrationResult:
    """One candidate weighting scored against a reference solution matrix."""

    label: str
    C_perf: np.ndarray
    residual: float


def calibrate_state_weight(
    A, B, B_w, gamma: float, X_ref, diag_grid=(0.1, 1.0, 10.0)
) -> list[CalibrationResult]:
    """Score candidate state weightings by the equation residual of X_ref.

    Candidates: the measurement row [0 1 0], the identity, and diag(a, b, c)
    over a coarse log grid.  Sorted best first.  A residual comparable to
    the PSD-projection floor from ``implied_state_weight`` means the
    candidate family can actually explain the reference solution; the
    shipped design points do not reach it (see README).
    """
    candidates: list[tuple[str, np.ndarray]] = [
        ("measurement [0 1 0]", MEASUREMENT_WEIGHT),
        ("identity", np.eye(3)),
    ]
    for a in diag_grid:
        for b in diag_grid:
            for c in diag_grid:
                candidates.append((f"diag({a:g},{b:g},{c:g})", np.diag([a, b, c])))

    results = []
    for label, C in candidates:
        problem = CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=gamma)
        results.append(
            CalibrationResult(label=label, C_perf=C, residual=care_residual(problem, X_ref))
        )
    results.sort(key=lambda r: r.residual)
    return results
