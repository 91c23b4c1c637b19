"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  Every tolerance is pinned here, not deferred.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    STIFF_COEFFS,
    exact_product,
    frozen_plant_scenario,
    grid_norm_oracle,
    production_step_map,
    propagate,
    quiet_scenario,
    random_care_data,
    random_stable_system,
)
from hinf_autopilot.actuators_sensors import (
    GYRO_DAMPING_TERM,
    GYRO_NATURAL_FREQ,
    SERVO_RATE_LIMIT,
    SERVO_TIME_CONSTANT,
)
from hinf_autopilot.care_solver import (
    CareProblem,
    StateSpace,
    care_residual,
    gamma_search,
    hinf_norm,
    solve_care,
    solve_lqr,
)
from hinf_autopilot.cli import main as cli_main
from hinf_autopilot.controller import (
    REFERENCE_GAIN_T60,
    REFERENCE_X_T60,
    REFERENCE_X_T100,
    calibrate_state_weight,
    design_point_t60,
    design_point_t100,
    gain_from_solution,
    synthesize,
)
from hinf_autopilot.simulator import (
    DisturbanceSpec,
    Noise,
    Ramp,
    Sine,
    Step,
    simulate,
)
from hinf_autopilot.vehicle_model import CommandProfile, assemble_pitch_plant


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def random_systems_100():
    """The canonical 100 random stabilizable/detectable systems.

    Shared by the property suite and the LQR-limit criterion ("the same
    100 systems").  Near-degenerate draws (LQR solution norm beyond 1e4)
    are rejected: there the gamma = 1e6 limit identity genuinely carries
    more than 1e-6 of finite-level bias.
    """
    rng = np.random.default_rng(2024)
    return [random_care_data(rng, max_lqr_norm=1e4) for _ in range(100)]


def test_criterion_01_gain_fixture_t60():
    """Pure arithmetic: B'X over the published 60 s data reproduces the gain."""
    plant = assemble_pitch_plant(design_point_t60().coeffs)
    gain = gain_from_solution(plant.B, REFERENCE_X_T60)
    deviation = np.abs(gain.K[0] - REFERENCE_GAIN_T60)
    assert np.all(deviation <= 5e-4)
    report("1 (gain fixture, 60 s)", f"max deviation {deviation.max():.2e} <= 5e-4")


def test_criterion_02_gain_fixture_t100():
    """Same product over the 100 s data against an exact-decimal oracle."""
    plant = assemble_pitch_plant(design_point_t100().coeffs)
    gain = gain_from_solution(plant.B, REFERENCE_X_T100)
    oracle = exact_product(
        ("0", "2.1086", "-6.2007"),
        (
            ("63.3031", "0.6819", "0.034"),
            ("0.6819", "1.8298", "-0.0002"),
            ("0.034", "-0.0002", "0.0000"),
        ),
    )
    assert np.all(np.abs(gain.K[0] - oracle) <= 1e-12)
    deviation = np.abs(gain.K[0] - np.array([1.2270, 3.8597, -0.0004]))
    assert np.all(deviation <= 5e-4)
    report("2 (gain fixture, 100 s)", f"max deviation {deviation.max():.2e} <= 5e-4")


def test_criterion_03_design_point_solutions():
    """Calibration-contingent criterion, fallback branch.

    The candidate-weighting search cannot reach the 5e-2 residual bar (the
    published matrices imply a full, design-point-specific weighting at the
    feasibility boundary; see README), so the fallback applies: the
    solver's own solutions at both published levels must pass the residual,
    symmetry, PSD, and stabilizing checks.
    """
    best_residuals = []
    for design, x_ref in (
        (design_point_t60(), REFERENCE_X_T60),
        (design_point_t100(), REFERENCE_X_T100),
    ):
        plant = assemble_pitch_plant(design.coeffs)
        results = calibrate_state_weight(
            plant.A, plant.B, plant.B_w, design.gamma, x_ref
        )
        best_residuals.append(results[0].residual)
    calibration_reached_bar = all(r <= 5e-2 for r in best_residuals)
    assert not calibration_reached_bar, (
        "candidate calibration unexpectedly succeeded; re-enable the "
        "direct X-matrix comparison"
    )

    for design in (design_point_t60(), design_point_t100()):
        plant = assemble_pitch_plant(design.coeffs)
        problem = CareProblem(
            A=plant.A, B=plant.B, B_w=plant.B_w, C=design.C_perf, gamma=design.gamma
        )
        sol = solve_care(problem)
        x_norm = float(np.linalg.norm(sol.X, "fro"))
        scale = max(
            1.0,
            float(np.linalg.norm(design.C_perf.T @ design.C_perf, "fro")),
            x_norm**2 * float(np.linalg.norm(plant.B @ plant.B.T, "fro")),
        )
        assert care_residual(problem, sol.X) <= 1e-8 * scale
        assert np.linalg.norm(sol.X - sol.X.T, "fro") <= 1e-10 * max(1.0, x_norm)
        assert float(np.linalg.eigvalsh(sol.X)[0]) >= -1e-8 * max(1.0, x_norm)
        assert float(sol.worst_case_eigs.real.max()) < 0.0
    report(
        "3 (design-point solutions, fallback branch)",
        f"candidate calibration floor {min(best_residuals):.3f} > 5e-2; "
        "solver self-checks pass at gamma=20/t=60 and gamma=7.8/t=100",
    )


def test_criterion_04_riccati_property_suite(random_systems_100):
    """100 seeded random problems: every solve verifies and attenuates."""
    start = time.perf_counter()
    for A, B, B_w, C in random_systems_100:
        gamma_min = gamma_search(A, B, B_w, C, bracket=(1e-6, 1e6), tol=1e-3)
        problem = CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=1.5 * max(gamma_min, 1e-6))
        sol = solve_care(problem)
        x_norm = float(np.linalg.norm(sol.X, "fro"))
        scale = max(
            1.0,
            float(np.linalg.norm(problem.C.T @ problem.C, "fro")),
            x_norm**2 * float(np.linalg.norm(problem.B @ problem.B.T, "fro")),
        )
        assert care_residual(problem, sol.X) <= 1e-8 * scale
        assert np.linalg.norm(sol.X - sol.X.T, "fro") <= 1e-10 * max(1.0, x_norm)
        assert float(np.linalg.eigvalsh(sol.X)[0]) >= -1e-8 * max(1.0, x_norm)
        assert float(sol.worst_case_eigs.real.max()) < 0.0
        closed = StateSpace(
            A=problem.A - problem.B @ sol.K,
            B_in=problem.B_w,
            C_out=np.vstack([problem.C, -sol.K]),
            D_ff=np.zeros(
                (problem.C.shape[0] + problem.B.shape[1], problem.B_w.shape[1])
            ),
        )
        assert hinf_norm(closed, tol=1e-6) < problem.gamma
    report(
        "4 (Riccati property suite)",
        f"100/100 random systems verified in {time.perf_counter() - start:.1f}s",
    )


def test_criterion_05_lqr_limit(random_systems_100):
    """solve_care at gamma=1e6 matches solve_lqr to 1e-6 relative, same systems."""
    start = time.perf_counter()
    worst = 0.0
    for A, B, B_w, C in random_systems_100:
        lqr = solve_lqr(A, B, C)
        hinf = solve_care(CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=1e6))
        floor = 1e-9 * max(1.0, float(np.abs(lqr.X).max()))
        rel = np.abs(hinf.X - lqr.X) / np.maximum(np.abs(lqr.X), floor)
        worst = max(worst, float(rel.max()))
        assert np.all(rel <= 1e-6)
    report(
        "5 (LQR limit)",
        f"worst elementwise relative gap {worst:.2e} <= 1e-6 "
        f"in {time.perf_counter() - start:.1f}s",
    )


def test_criterion_06_norm_computation():
    """Gyro/servo norms plus 1e5-point grid agreement on 100 random systems."""
    wn = GYRO_NATURAL_FREQ
    gyro = StateSpace(
        A=[[0.0, 1.0], [-wn**2, -GYRO_DAMPING_TERM]],
        B_in=[[0.0], [wn**2]],
        C_out=[[1.0, 0.0]],
        D_ff=[[0.0]],
    )
    zeta = 0.25
    analytic = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2))
    gyro_norm = hinf_norm(gyro, tol=1e-8)
    assert abs(gyro_norm - analytic) <= 1e-3

    pole = 1.0 / SERVO_TIME_CONSTANT
    servo = StateSpace(A=[[-pole]], B_in=[[pole]], C_out=[[1.0]], D_ff=[[0.0]])
    servo_norm = hinf_norm(servo, tol=1e-9)
    assert abs(servo_norm - 1.0) <= 1e-6

    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        A, B, C, D = random_stable_system(rng)
        value = hinf_norm(StateSpace(A=A, B_in=B, C_out=C, D_ff=D), tol=1e-8)
        reference = grid_norm_oracle(A, B, C, D, 100_000)
        rel = abs(value - reference) / reference
        worst = max(worst, rel)
        assert rel <= 1e-4
    report(
        "6 (norm computation)",
        f"gyro {gyro_norm:.4f} (analytic {analytic:.4f}), servo {servo_norm:.6f}, "
        f"worst grid gap {worst:.2e} over 100 systems "
        f"in {time.perf_counter() - start:.1f}s",
    )


def test_criterion_07_integrator_order():
    """The simulator's RK4 step vs expm: error shrinks >= 12x per halving, 3 halvings.

    Measured on the propagators `simulate` precomputes for a stiff frozen plant.
    """
    x0 = np.random.default_rng(77).normal(size=3)
    exact = scipy.linalg.expm(assemble_pitch_plant(STIFF_COEFFS).A * 0.05) @ x0
    errors = [
        float(np.linalg.norm(exact - propagate(production_step_map(
            frozen_plant_scenario(STIFF_COEFFS, dt, (0.0, 0.05))), x0)))
        for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4)
    ]
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    assert all(r >= 12.0 for r in ratios)
    report(
        "7 (integrator order)",
        "simulator step, error ratios per halving " + ", ".join(f"{r:.1f}" for r in ratios),
    )


def test_criterion_08_servo_rate_bound(shipped_runs):
    """Every shipped scenario trace respects the deflection-rate limit."""
    details = []
    for name, (scenario, trace, _) in shipped_runs.items():
        rates = np.abs(np.diff(trace.delta)) / scenario.dt
        assert float(rates.max()) <= SERVO_RATE_LIMIT + 1e-12
        details.append(f"{name} max {math.degrees(rates.max()):.2f} deg/s")
    report("8 (servo rate bound)", "; ".join(details) + " <= 25 deg/s")


def test_criterion_09_tracking_with_integral_action():
    """Frozen-plant run settles the rate error below 1e-6 rad/s.

    The command ends at zero rate so the attitude-integral forcing freezes;
    a command held at a nonzero rate forever would ramp that forcing and
    leave a constant error (type-2 reference against a type-1 loop), which
    no gain of this structure can remove.  The 3x3 equilibrium oracle gives
    e = 0 exactly for the frozen forcing.
    """
    profile = CommandProfile(
        ((60.0, 0.0), (62.0, 0.0), (64.0, -0.0015), (70.0, -0.0015), (72.0, 0.0))
    )
    scenario = quiet_scenario(profile=profile, t_span=(60.0, 600.0))
    start = time.perf_counter()
    trace, _ = simulate(scenario)
    elapsed = time.perf_counter() - start

    design = scenario.design
    plant = assemble_pitch_plant(design.coeffs)
    _, gain = synthesize(design)
    closed = plant.A - plant.B @ gain.K
    theta_cmd = float(profile.rate_integral(600.0))
    forcing = np.array([0.0, 0.0, design.coeffs.Z_theta * theta_cmd])
    x_eq = np.linalg.solve(closed, -forcing)

    assert abs(x_eq[1]) < 1e-12  # oracle: equilibrium rate error is zero
    final_e = float(abs(trace.x[-1, 1]))
    assert final_e < 1e-6
    assert abs(trace.x[-1, 2] - x_eq[2]) <= 1e-2 * abs(x_eq[2])
    report(
        "9 (tracking with integral action)",
        f"|e(tf)| = {final_e:.2e} < 1e-6 rad/s, matching the equilibrium "
        f"oracle (e_eq = {x_eq[1]:.1e}); run {elapsed:.1f}s",
    )


def test_criterion_10_time_domain_attenuation():
    """Each primitive disturbance keeps energy_ratio below gamma^2 = 400."""
    dt = 5e-4
    cases = {
        "step": Step(t0=70.0, amplitude=0.05),
        "sine": Sine(amplitude=0.05, frequency=2.0),
        "ramp": Ramp(t0=65.0, slope=0.002),
        "noise": Noise(amplitude=0.05, seed=3, hold=dt),
    }
    ratios = {}
    for name, primitive in cases.items():
        scenario = quiet_scenario(
            disturbances=DisturbanceSpec(channel2=(primitive,)), t_span=(60.0, 110.0), dt=dt
        )
        _, metrics = simulate(scenario)
        assert metrics.energy_ratio < 20.0**2
        ratios[name] = metrics.energy_ratio
    report(
        "10 (time-domain attenuation)",
        "energy ratios "
        + ", ".join(f"{k}={v:.3g}" for k, v in ratios.items())
        + " all < 400",
    )


def test_criterion_11_substituted_checks(shipped_runs, capsys):
    """The published response plots are not numerically recoverable.

    Substituted by: the rate bound (criterion 8), integral-action settling
    (9), attenuation (10), plus the determinism and step-size-robustness
    invariants checked here; the reproduce-paper command emits the
    qualitative comparison for human inspection.
    """
    # Determinism: a rerun of a shipped scenario is bitwise identical.
    scenario, trace, _ = shipped_runs["paper-lti"]
    trace2, metrics_full = simulate(scenario)
    assert np.array_equal(trace.x, trace2.x)
    assert np.array_equal(trace.delta, trace2.delta)

    # Step-size robustness: halving dt moves rms_e by less than 1%.
    halved = dataclasses.replace(scenario, dt=scenario.dt / 2.0)
    _, metrics_halved = simulate(halved)
    drift = abs(metrics_full.rms_e - metrics_halved.rms_e) / metrics_halved.rms_e
    assert drift < 0.01

    # The comparison report is emitted and carries both scenarios.
    assert cli_main(["reproduce-paper", "--dt", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "Qualitative comparison" in out
    assert "paper-ltv" in out and "paper-lti" in out
    with capsys.disabled():
        print()
        report(
            "11 (substituted plot checks)",
            f"determinism bitwise, rms_e dt-drift {drift:.2%} < 1%, "
            "qualitative report emitted",
        )
