"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the
frequency-grid norm uses an eigendecomposition frequency response instead
of the Hamiltonian bisection, the scalar Riccati oracle is the quadratic
formula with an explicit root-classification case analysis, and reference
integrations use their own stepping loops.

The package steps the servo and gyro only inside `simulator.simulate`;
`integrate_reference_servo` and `integrate_reference_gyro` are the models
its traces are checked against, bitwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from hinf_autopilot.controller import DesignPoint, design_point_t60
from hinf_autopilot.simulator import (
    BUILTIN_SCENARIOS,
    DisturbanceSpec,
    Scenario,
    _stage_grids,
    _step_updates,
    simulate,
)
from hinf_autopilot.vehicle_model import CommandProfile, DynamicCoefficients


# ---------------------------------------------------------------------------
# Scalar Riccati oracle: 2 a x - g x^2 + c^2 = 0 with g = b^2 - bw^2 / gamma^2.

AXIS = "axis"
INDEFINITE = "indefinite"


def scalar_care_oracle(a: float, b: float, bw: float, c: float, gamma: float):
    """PSD stabilizing root of the scalar equation, or a failure class.

    Returns a float (the solution) or one of the strings AXIS (Hamiltonian
    eigenvalues on the imaginary axis) / INDEFINITE (stabilizing root exists
    but is negative).
    """
    g = b * b - (bw * bw) / gamma**2
    if g == 0.0:
        if a == 0.0:
            return AXIS  # no solution at all; degenerate
        x = -c * c / (2.0 * a)
        if a >= 0.0 or x < 0.0:
            return INDEFINITE
        return x
    disc = a * a + g * c * c
    if disc <= 0.0:
        return AXIS
    x = (a + math.sqrt(disc)) / g  # root with a - g x = -sqrt(disc) < 0
    if x < 0.0:
        return INDEFINITE
    return x


def scalar_gamma_min(a: float, b: float, bw: float, c: float) -> float:
    """Feasibility boundary of the scalar problem (PSD + stabilizing)."""
    if bw == 0.0:
        return 0.0
    if a < 0.0:
        return abs(bw * c) / math.sqrt(a * a + b * b * c * c)
    return abs(bw / b)


def scalar_gamma_min_brute(a: float, b: float, bw: float, c: float, grid=None) -> float:
    """Grid-sweep confirmation of the boundary, using only the root oracle."""
    if grid is None:
        grid = np.logspace(-3, 3, 20001)
    feasible = np.array(
        [isinstance(scalar_care_oracle(a, b, bw, c, g), float) for g in grid]
    )
    if feasible.all():
        return float(grid[0])
    idx = int(np.argmax(feasible)) if feasible.any() else len(grid)
    if idx == 0 or idx == len(grid):
        raise AssertionError("boundary not bracketed by the sweep grid")
    return float(math.sqrt(grid[idx - 1] * grid[idx]))


def exact_product(b_entries, x_rows):
    """Exact decimal B'X via Fraction arithmetic (independent oracle)."""
    b = [Fraction(s) for s in b_entries]
    x = [[Fraction(s) for s in row] for row in x_rows]
    return np.array([float(sum(b[i] * x[i][j] for i in range(3))) for j in range(3)])


# ---------------------------------------------------------------------------
# Frequency-grid norm oracle (eigendecomposition response, no Hamiltonians).


def grid_norm_oracle(A, B, C, D, n_points: int = 100_000) -> float:
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    C = np.atleast_2d(np.asarray(C, float))
    D = np.atleast_2d(np.asarray(D, float))
    lam, V = np.linalg.eig(A)
    Vi = np.linalg.inv(V)
    VB = Vi @ B
    CV = C @ V
    mags = np.abs(lam)
    w_lo = max(float(mags.min()) * 1e-3, 1e-8)
    w_hi = max(float(mags.max()) * 1e3, 1.0)
    freqs = np.logspace(math.log10(w_lo), math.log10(w_hi), n_points)
    best = float(np.linalg.norm(D, 2))
    best = max(best, float(np.linalg.norm(C @ np.linalg.solve(-A, B) + D, 2)))
    for chunk in np.array_split(freqs, max(1, n_points // 20_000)):
        resp = (CV[None, :, :] / (1j * chunk[:, None, None] - lam[None, None, :])) @ VB[
            None, :, :
        ] + D[None, :, :]
        sing = np.linalg.svd(resp, compute_uv=False)[:, 0]
        best = max(best, float(sing.max()))
    return best


# ---------------------------------------------------------------------------
# Random system generators (seeded by the caller).


def random_stable_system(rng: np.random.Generator, min_damping: float = 0.35):
    """Random Hurwitz system with bounded resonance sharpness.

    Damping is kept above `min_damping` so that a 1e5-point log grid
    resolves every peak to well under 1e-4 relative error.
    """
    n = int(rng.integers(2, 6))
    blocks = []
    size = 0
    while size < n:
        if n - size >= 2 and rng.random() < 0.6:
            sigma = float(rng.uniform(0.3, 3.0))
            ratio = math.sqrt(1.0 - min_damping**2) / min_damping
            wd = float(rng.uniform(0.1, ratio)) * sigma
            blocks.append(np.array([[-sigma, wd], [-wd, -sigma]]))
            size += 2
        else:
            blocks.append(np.array([[-float(rng.uniform(0.2, 3.0))]]))
            size += 1
    A = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        k = blk.shape[0]
        A[pos : pos + k, pos : pos + k] = blk
        pos += k
    T = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    A = np.linalg.solve(T, A @ T)
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    D = rng.normal(size=(p, m)) * (0.5 if rng.random() < 0.3 else 0.0)
    return A, B, C, D


def random_care_data(rng: np.random.Generator, max_lqr_norm: float | None = None):
    """Random stabilizable/detectable (A, B, B_w, C) with n <= 5.

    With `max_lqr_norm` set, draws whose LQR solution blows past it are
    rejected: those sit next to unstabilizable/undetectable degeneracy,
    where finite-gamma limits lose their meaning.
    """
    from hinf_autopilot.care_solver import _pbh_warnings, solve_lqr

    while True:
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, int(rng.integers(1, 3))))
        B_w = rng.normal(size=(n, int(rng.integers(1, 3))))
        C = rng.normal(size=(int(rng.integers(1, 3)), n))
        if _pbh_warnings(A, B, C):
            continue
        if max_lqr_norm is not None:
            if np.linalg.norm(solve_lqr(A, B, C).X, "fro") > max_lqr_norm:
                continue
        return A, B, B_w, C


# ---------------------------------------------------------------------------
# Reference integrators.


def integrate_reference_servo(delta0, command, dt, n_steps, tau, rate_limit):
    """Dense-step forward-Euler reference for the rate-limited servo."""
    delta = delta0
    for k in range(n_steps):
        rate = (command(k * dt) - delta) / tau
        rate = max(-rate_limit, min(rate_limit, rate))
        delta += rate * dt
    return delta


def integrate_reference_gyro(x1, x2, q_of_t, dt, n_steps, wn, damp):
    """Dense-step RK4 reference for the gyro filter."""
    wn2 = wn * wn
    for k in range(n_steps):
        t = k * dt
        q = q_of_t(t)

        def deriv(a, b):
            return b, wn2 * (q - a) - damp * b

        k1a, k1b = deriv(x1, x2)
        k2a, k2b = deriv(x1 + 0.5 * dt * k1a, x2 + 0.5 * dt * k1b)
        k3a, k3b = deriv(x1 + 0.5 * dt * k2a, x2 + 0.5 * dt * k2b)
        k4a, k4b = deriv(x1 + dt * k3a, x2 + dt * k3b)
        x1 += dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        x2 += dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)
    return x1, x2


# ---------------------------------------------------------------------------
# Scenarios and the simulator's own one-step map.

ZERO_PROFILE = CommandProfile(((0.0, 0.0),))
ZERO_COEFFS = DynamicCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

#: Stiff frozen plant for the integrator-order checks: eigenvalues -96.7,
#: -23.2 and -0.009 1/s, so |lambda| dt reaches 0.1 at dt = 1 ms.
STIFF_COEFFS = DynamicCoefficients(
    Z_v=-90.0, Z_q=900.0, Z_theta=-40.0, Z_delta=-3.0, M_v=0.5, M_q=-30.0, M_delta=-2.0
)


def quiet_scenario(**overrides) -> Scenario:
    """Frozen-plant scenario with zero command and zero disturbance."""
    return Scenario(**{
        "design": design_point_t60(), "profile": ZERO_PROFILE, "disturbances": DisturbanceSpec(),
        "t_span": (60.0, 70.0), "dt": 1e-3, "feedback_source": "true_state",
        "plant_mode": "lti_frozen", **overrides,
    })


def frozen_plant_scenario(coeffs, dt, t_span=(0.0, 1e-3), profile=ZERO_PROFILE) -> Scenario:
    """Quiet scenario whose plant is frozen at `coeffs`."""
    design = DesignPoint(t_design=t_span[0], gamma=1.0, coeffs=coeffs)
    return quiet_scenario(design=design, profile=profile, t_span=t_span, dt=dt)


def production_step_map(scenario: Scenario):
    """(M, N_u, P, q_f) of each step, from the precompute `simulate` runs.

    One step of the simulation loop is x+ = M x + N_u delta + P w + q_f.
    """
    s = _step_updates(scenario.dt, _stage_grids(scenario, 0, scenario.n_steps))
    return s[:, :9].reshape(-1, 3, 3), s[:, 9:12], s[:, 12:18].reshape(-1, 3, 2), s[:, 18:]


def propagate(step_map, x, delta=0.0, w=(0.0, 0.0)):
    """Apply each step of `step_map` in turn, deflection and disturbance held."""
    for M, N_u, P, q_f in zip(*step_map):
        x = M @ x + N_u * delta + P @ np.asarray(w) + q_f
    return x


# ---------------------------------------------------------------------------
# Session-wide shipped scenario runs (shared by several test modules).


@pytest.fixture(scope="session")
def shipped_runs():
    runs = {}
    for name, factory in BUILTIN_SCENARIOS.items():
        scenario = factory()
        trace, metrics = simulate(scenario)
        runs[name] = (scenario, trace, metrics)
    return runs
