"""Closed-loop simulation, disturbances, metrics, and integrator tests."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from conftest import (
    STIFF_COEFFS,
    ZERO_COEFFS,
    frozen_plant_scenario,
    production_step_map,
    propagate,
    quiet_scenario,
)
from hinf_autopilot import simulator
from hinf_autopilot.actuators_sensors import SERVO_RATE_LIMIT
from hinf_autopilot.controller import DesignPoint, design_point_t60, synthesize
from hinf_autopilot.simulator import (
    DisturbanceSpec,
    Metrics,
    Noise,
    NonFiniteState,
    Ramp,
    SimulationTrace,
    Sine,
    Step,
    SynthesisFailed,
    compute_metrics,
    scenario_paper_lti,
    scenario_paper_ltv,
    simulate,
    simulate_to_csv,
)
from hinf_autopilot.vehicle_model import (
    PITCH_COEFFS_T60,
    CoefficientSchedule,
    CommandProfile,
    DynamicCoefficients,
    assemble_pitch_plant,
    coefficients_at,
    pitch_terms,
)


class TestRk4Step:
    """The RK4 step `simulate` runs: the map precomputed by _step_updates."""

    def test_exponential_decay(self):
        # e-channel-only plant de/dt = M_q e with M_q * dt = -0.1.  One
        # classical step truncates the Taylor series after dt^4:
        # 1 - 0.1 + 0.005 - 0.1^3/6 + 0.1^4/24 = 0.9048375 exactly; the gap
        # to exp(-0.1) is the dt^5/5! term, 8.33e-8.
        coeffs = DynamicCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, -100.0, 0.0)
        decay = production_step_map(frozen_plant_scenario(coeffs, 1e-3))[0][0, 1, 1]
        assert decay == pytest.approx(0.9048375, abs=1e-12)
        assert abs(decay - math.exp(-0.1)) < 1e-7

    def test_zero_derivative(self):
        # No dynamics, command or control moment: a state without rate
        # error stays exactly where it is, whatever the deflection.
        step_map = production_step_map(frozen_plant_scenario(ZERO_COEFFS, 5e-4))
        state = np.array([1.0, 0.0, 3.0])
        assert np.array_equal(propagate(step_map, state, delta=0.7), state)

    def test_fourth_order_against_matrix_exponential(self):
        # Stiff plant, deflection and disturbance held: the exact step is the
        # exponential of the input-augmented matrix.
        plant = assemble_pitch_plant(STIFF_COEFFS)
        aug = np.zeros((6, 6))
        aug[:3] = np.hstack([plant.A, plant.B, plant.B_w])
        z0 = np.array([0.3, -0.2, 0.5, 0.01, 0.2, -0.1])  # x, delta, w
        exact = (scipy.linalg.expm(aug * 0.05) @ z0)[:3]
        e1, e2 = (
            np.linalg.norm(exact - propagate(production_step_map(
                frozen_plant_scenario(STIFF_COEFFS, dt, (0.0, 0.05))), z0[:3], z0[3], z0[4:]))
            for dt in (1e-3, 5e-4)
        )
        assert 12.0 <= e1 / e2 <= 20.0

    def test_fourth_order_on_time_varying_plant(self):
        # Coefficients move linearly over the 50 ms run under a ramping
        # command, so each RK4 stage must see the plant and the forcing at its
        # own time.  Reference: DOP853 on the same ODE, deflection and
        # disturbance held.
        schedule = CoefficientSchedule(((0.0, STIFF_COEFFS), (0.05, PITCH_COEFFS_T60)))
        profile = CommandProfile(((0.0, 0.1), (1.0, -0.4)))
        x0, delta, w = np.array([0.3, -0.2, 0.5]), 0.01, np.array([0.2, -0.1])

        def rhs(t, x):
            c = coefficients_at(schedule, t)
            plant = assemble_pitch_plant(c)
            qc = profile.rate(t)
            forcing = [0.0, profile.rate_derivative(t) - c.M_q * qc,
                       c.Z_q * qc + c.Z_theta * profile.rate_integral(t)]
            return plant.A @ x + plant.B[:, 0] * delta + plant.B_w @ w + forcing

        exact = solve_ivp(rhs, (0.0, 0.05), x0, method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]
        errors = [
            np.linalg.norm(exact - propagate(production_step_map(quiet_scenario(
                schedule=schedule, profile=profile, t_span=(0.0, 0.05), dt=dt, plant_mode="ltv",
            )), x0, delta, w))
            for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4)
        ]
        assert all(errors[i] / errors[i + 1] >= 12.0 for i in range(3))

    def test_non_finite_derivative(self):
        # A non-finite input makes the first step non-finite: NonFiniteState
        # at t0 + dt, with the one finite sample.
        scenario = quiet_scenario(
            disturbances=DisturbanceSpec(channel1=(Step(t0=0.0, amplitude=math.inf),))
        )
        with pytest.raises(NonFiniteState) as excinfo:
            simulate(scenario)
        assert excinfo.value.time == pytest.approx(60.0 + scenario.dt, abs=1e-12)
        assert len(excinfo.value.trace.t) == 1

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            quiet_scenario(dt=-0.1)


def textbook_step_updates(dt, grid):
    """_step_updates with each RK4 stage and the fold written as one expression."""
    rows, qc, dqc, iqc = grid
    nodes, mids = (
        pitch_terms(rows[sl], qc[sl], dqc[sl], iqc[sl])
        for sl in (slice(0, None, 2), slice(1, None, 2))
    )
    A_nodes, B_nodes, B_w, f_nodes = nodes
    A2, B2, _, f2 = mids
    A1, A3 = A_nodes[:-1], A_nodes[1:]
    n_steps = len(A2)
    half = 0.5 * dt
    sixth = dt / 6.0

    L1 = A1
    L2 = A2 + half * (A2 @ L1)
    L3 = A2 + half * (A2 @ L2)
    L4 = A3 + dt * (A3 @ L3)
    M = np.eye(3) + sixth * (L1 + 2.0 * L2 + 2.0 * L3 + L4)

    def matvec(mats, vecs):
        return np.einsum("kij,kj->ki", mats, vecs)

    def input_propagator(c_nodes, c2):
        n1 = c_nodes[:-1]
        n2 = half * matvec(A2, n1) + c2
        n3 = half * matvec(A2, n2) + c2
        n4 = dt * matvec(A3, n3) + c_nodes[1:]
        return sixth * (n1 + 2.0 * n2 + 2.0 * n3 + n4)

    out = np.empty((n_steps, 21))
    out[:, 0:9] = M.reshape(n_steps, 9)
    out[:, 9:12] = input_propagator(B_nodes, B2)
    for j in range(2):
        column = np.broadcast_to(B_w[:, j], (n_steps + 1, 3))
        out[:, 12 + j:18:2] = input_propagator(column, column[:-1])
    out[:, 18:21] = input_propagator(f_nodes, f2)
    return out


class TestStepUpdates:
    """_step_updates builds the RK4 fold in place, with the textbook fold's bits."""

    @pytest.mark.parametrize("n_steps", [1, 2, 2047, 2048, 4097])
    def test_in_place_fold_has_the_textbook_bits(self, n_steps):
        rng = np.random.default_rng(n_steps)
        points = 2 * n_steps + 1

        def values(*shape):
            # Magnitudes over six decades and both signs; about a tenth of
            # them, the first among them, -0.0.
            out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
            negative_zero = rng.random(shape) < 0.1
            negative_zero.flat[0] = True
            out[negative_zero] = -0.0
            return out

        grid = (values(points, 7), values(points), values(points), values(points))
        got = simulator._step_updates(simulator.DEFAULT_DT, grid)
        expected = textbook_step_updates(simulator.DEFAULT_DT, grid)
        assert got.shape == expected.shape == (n_steps, 21)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestDisturbanceSample:
    """One instant of a spec is `spec.sample_grid([t])[0]`."""

    def test_empty_spec(self):
        assert np.array_equal(DisturbanceSpec().sample_grid([3.0])[0], [0.0, 0.0])

    def test_step_closed_left_endpoint(self):
        spec = DisturbanceSpec(channel1=(Step(t0=5.0, amplitude=0.1),))
        assert spec.sample_grid([4.9])[0, 0] == 0.0
        assert spec.sample_grid([5.0])[0, 0] == 0.1
        assert spec.sample_grid([6.0])[0, 0] == 0.1

    def test_sine_quarter_period(self):
        spec = DisturbanceSpec(channel2=(Sine(amplitude=0.2, frequency=1.0),))
        assert spec.sample_grid([math.pi / 2])[0, 1] == pytest.approx(0.2, rel=1e-12)

    def test_ramp(self):
        spec = DisturbanceSpec(channel1=(Ramp(t0=2.0, slope=0.5),))
        assert spec.sample_grid([1.0])[0, 0] == 0.0
        assert spec.sample_grid([4.0])[0, 0] == pytest.approx(1.0)

    def test_primitives_sum(self):
        spec = DisturbanceSpec(
            channel1=(Step(t0=0.0, amplitude=1.0), Ramp(t0=0.0, slope=1.0))
        )
        assert spec.sample_grid([2.0])[0, 0] == pytest.approx(3.0)

    def test_noise_reproducible_and_held(self):
        spec = DisturbanceSpec(channel1=(Noise(amplitude=0.3, seed=42, hold=0.1),))
        a = spec.sample_grid([0.55])[0, 0]
        b = spec.sample_grid([0.59])[0, 0]  # same hold interval
        c = DisturbanceSpec(
            channel1=(Noise(amplitude=0.3, seed=42, hold=0.1),)
        ).sample_grid([0.55])[0, 0]
        assert a == b == c
        assert abs(a) <= 0.3
        # Prefix stability: querying a later time first must not change it.
        spec2 = DisturbanceSpec(channel1=(Noise(amplitude=0.3, seed=977, hold=0.1),))
        late = spec2.sample_grid([123.4])[0, 0]
        early = spec2.sample_grid([0.55])[0, 0]
        spec3 = DisturbanceSpec(channel1=(Noise(amplitude=0.3, seed=977, hold=0.1),))
        assert spec3.sample_grid([0.55])[0, 0] == early
        assert spec3.sample_grid([123.4])[0, 0] == late

    @pytest.mark.parametrize("hold", [0.0, -1e-3, math.nan])
    def test_noise_hold_must_be_positive(self, hold):
        with pytest.raises(ValueError, match="hold"):
            Noise(amplitude=0.1, seed=1, hold=hold)

    @pytest.mark.parametrize("seed", [1.9, True, 3.0, -1])
    def test_noise_seed_must_be_a_non_negative_int(self, seed):
        # A float seed built and then raised TypeError from numpy when sampled.
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            Noise(amplitude=0.1, seed=seed)

    def test_noise_window_equals_full_stream_slice(self):
        # A window that starts late draws only its own samples; they must
        # equal the same indices of the whole seeded stream.
        hold = 2e-4
        t = 60.0 + hold * np.arange(100_001)
        spec = DisturbanceSpec(channel2=(Noise(amplitude=0.5, seed=123, hold=hold),))
        state_before = dict(vars(simulator))
        sizes_before = {name: len(value) for name, value in state_before.items()
                        if isinstance(value, (dict, list, set))}
        values = spec.sample_grid(t)[:, 1]
        idx = np.floor(t / hold + 1e-9).astype(int)
        assert idx[0] == 300_000
        stream = np.random.default_rng(123).uniform(-1.0, 1.0, int(idx[-1]) + 1)
        assert np.array_equal(values, 0.5 * stream[idx])
        # No per-seed state kept in the module.
        state_after = vars(simulator)
        assert state_after.keys() == state_before.keys()
        for name, value in state_before.items():
            assert state_after[name] is value, name
        for name, size in sizes_before.items():
            assert len(state_after[name]) == size, name

    @pytest.mark.parametrize("prim", [
        Step(t0=1.0, amplitude=0.1), Sine(amplitude=0.2, frequency=1.0),
        Ramp(t0=2.0, slope=0.5), Noise(amplitude=1.0, seed=1),
    ], ids=["step", "sine", "ramp", "noise"])
    def test_empty_time_array(self, prim):
        assert prim.values(np.array([])).shape == (0,)
        samples = DisturbanceSpec(channel1=(prim,), channel2=(prim,)).sample_grid(np.array([]))
        assert samples.shape == (0, 2)

    def test_channels_are_tuples_of_what_was_given(self):
        given = []
        spec = DisturbanceSpec(channel1=given, channel2=[Step(t0=0.0, amplitude=0.1)])
        assert isinstance(spec.channel1, tuple) and isinstance(spec.channel2, tuple)
        scenario = quiet_scenario(t_span=(60.0, 60.01), dt=1e-3, disturbances=spec)
        given.append(Noise(0.1, 1, hold=1e-6))  # a hold the Scenario refuses
        assert spec.channel1 == ()
        trace, _ = simulate(scenario)
        assert not trace.w[:, 0].any()


class TestSimulate:
    def test_zero_scenario_identically_zero(self):
        trace, metrics = simulate(quiet_scenario())
        for arr in (trace.x, trace.theta, trace.q, trace.delta, trace.u, trace.w,
                    trace.q_meas):
            assert np.all(arr == 0.0)
        assert metrics == Metrics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_deterministic_bitwise(self):
        scenario = scenario_paper_lti(
            t_span=(60.0, 70.0),
            dt=5e-4,
            disturbances=DisturbanceSpec(
                channel1=(Noise(amplitude=0.05, seed=7, hold=5e-4),),
                channel2=(Step(t0=62.0, amplitude=0.05),),
            ),
        )
        t1, m1 = simulate(scenario)
        t2, m2 = simulate(scenario)
        for a, b in zip(
            (t1.t, t1.x, t1.theta, t1.q, t1.delta, t1.u, t1.w, t1.q_meas),
            (t2.t, t2.x, t2.theta, t2.q, t2.delta, t2.u, t2.w, t2.q_meas),
        ):
            assert np.array_equal(a, b)
        assert m1 == m2

    def test_trace_grid(self):
        trace, _ = simulate(quiet_scenario(t_span=(60.0, 61.0), dt=1e-3))
        assert len(trace.t) == 1001
        steps = np.diff(trace.t)
        assert np.allclose(steps, 1e-3, rtol=0, atol=1e-12)

    def test_rate_limit_respected_even_when_saturating(self):
        # A violent step disturbance drives the deflection command hard.
        scenario = scenario_paper_lti(
            t_span=(60.0, 65.0),
            dt=5e-4,
            disturbances=DisturbanceSpec(channel2=(Step(t0=61.0, amplitude=5.0),)),
        )
        trace, metrics = simulate(scenario)
        rates = np.abs(np.diff(trace.delta)) / scenario.dt
        assert rates.max() <= SERVO_RATE_LIMIT + 1e-12
        assert metrics.servo_saturation_fraction > 0.0

    @pytest.mark.parametrize("servo, saturated", [
        (dict(servo_rate_limit=0.1), 0.688),
        (dict(servo_tau=5e-4, servo_rate_limit=1e9), 0.0),  # pass-through
    ])
    def test_saturation_fraction_uses_the_scenario_limit(self, servo, saturated):
        # A 0.5 step drives the deflection rate to 0.33 rad/s, inside the
        # shipped 0.436 rad/s limit; the metric counts the scenario's limit.
        _, metrics = simulate(scenario_paper_lti(
            t_span=(60.0, 65.0), dt=5e-4,
            disturbances=DisturbanceSpec(channel2=(Step(t0=61.0, amplitude=0.5),)), **servo,
        ))
        assert metrics.servo_saturation_fraction == pytest.approx(saturated, abs=1e-12)

    def test_matches_exact_sampled_closed_loop(self):
        # Pass-through servo (tau = dt, huge limit), true-state feedback,
        # zero forcing, frozen plant: the loop is exactly the sampled linear
        # system x+ = Phi x + Gamma_B u + Gamma_w w with u = -K x held over
        # each step, whose matrix-exponential solution is computed here.
        design = design_point_t60()
        dt = 1e-3
        scenario = quiet_scenario(
            t_span=(60.0, 80.0),
            dt=dt,
            servo_tau=dt,
            servo_rate_limit=1e9,
            disturbances=DisturbanceSpec(channel2=(Step(t0=0.0, amplitude=0.02),)),
        )
        trace, _ = simulate(scenario)

        plant = assemble_pitch_plant(design.coeffs)
        _, gain = synthesize(design)
        aug = np.zeros((6, 6))
        aug[:3, :3] = plant.A
        aug[:3, 3:4] = plant.B
        aug[:3, 4:6] = plant.B_w
        exp_aug = scipy.linalg.expm(aug * dt)
        phi = exp_aug[:3, :3]
        gamma_b = exp_aug[:3, 3]
        gamma_w = exp_aug[:3, 4:6]

        x = np.zeros(3)
        w = np.array([0.0, 0.02])
        n = len(trace.t) - 1
        for _ in range(n):
            u = float(-(gain.K @ x)[0])
            x = phi @ x + gamma_b * u + gamma_w @ w
        scale = max(1.0, float(np.abs(x).max()))
        assert np.abs(trace.x[-1] - x).max() <= 1e-6 * scale

    def test_step_size_robustness(self):
        base = scenario_paper_lti(t_span=(60.0, 90.0))
        halved = scenario_paper_lti(t_span=(60.0, 90.0), dt=base.dt / 2.0)
        _, m1 = simulate(base)
        _, m2 = simulate(halved)
        assert abs(m1.rms_e - m2.rms_e) / m2.rms_e < 0.01

    def test_feedback_source_swap_is_minor(self):
        # Command bandwidth is far below the gyro's 80*pi rad/s.
        a = scenario_paper_lti(t_span=(60.0, 100.0), feedback_source="gyro_rate")
        b = scenario_paper_lti(t_span=(60.0, 100.0), feedback_source="true_state")
        _, ma = simulate(a)
        _, mb = simulate(b)
        assert abs(ma.rms_e - mb.rms_e) / mb.rms_e < 0.05

    def test_constant_command_settles_to_equilibrium(self):
        # Command ends at zero rate, so the forcing freezes and the integral
        # channel pins e to the 3x3 equilibrium oracle's zero.
        profile = CommandProfile(
            ((60.0, 0.0), (62.0, 0.0), (64.0, -0.0015), (70.0, -0.0015), (72.0, 0.0))
        )
        scenario = quiet_scenario(profile=profile, t_span=(60.0, 400.0), dt=1e-3)
        trace, _ = simulate(scenario)
        design = scenario.design
        plant = assemble_pitch_plant(design.coeffs)
        _, gain = synthesize(design)
        closed = plant.A - plant.B @ gain.K
        theta_cmd = float(profile.rate_integral(400.0))
        forcing = np.array([0.0, 0.0, design.coeffs.Z_theta * theta_cmd])
        x_eq = np.linalg.solve(closed, -forcing)
        assert abs(x_eq[1]) < 1e-15 * max(1.0, np.linalg.norm(x_eq))
        # The slowest closed-loop mode (-0.0106 1/s) is still closing at
        # t=400; the error channel is already small and v_z within 10%.
        assert abs(trace.x[-1, 1]) < 1e-5
        assert abs(trace.x[-1, 2] - x_eq[2]) <= 0.1 * abs(x_eq[2])

    def test_divergence_reports_time_and_partial_trace(self):
        # A schedule that walks into violently unstable pitch dynamics with
        # a vanishing control moment defeats the frozen gain.
        wild = DynamicCoefficients(
            Z_v=-0.05, Z_q=600.0, Z_theta=-6.5, Z_delta=-0.001,
            M_v=-0.003, M_q=80.0, M_delta=-0.0001,
        )
        schedule = CoefficientSchedule(((60.0, PITCH_COEFFS_T60), (61.0, wild)))
        scenario = quiet_scenario(
            schedule=schedule,
            disturbances=DisturbanceSpec(channel2=(Step(t0=60.0, amplitude=0.1),)),
            t_span=(60.0, 120.0),
            plant_mode="ltv",
        )
        with pytest.raises(NonFiniteState) as excinfo:
            simulate(scenario)
        err = excinfo.value
        assert 60.0 < err.time <= 120.0
        assert isinstance(err.trace, SimulationTrace)
        assert len(err.trace.t) >= 1
        assert np.all(np.isfinite(err.trace.x))

    def test_synthesis_failure_wrapped(self):
        with pytest.raises(SynthesisFailed):
            simulate(quiet_scenario(design=design_point_t60(gamma=1e-6)))

    def test_plant_whose_b_bt_overflows_is_a_value_error(self):
        # Was a LinAlgError from the Riccati solver's eigensolver; the design
        # point now refuses it where it is built, before any scenario runs.
        coeffs = dataclasses.replace(PITCH_COEFFS_T60, M_delta=-1e200)
        with pytest.raises(ValueError, match="B B' has non-finite entries"):
            DesignPoint(t_design=60.0, gamma=20.0, coeffs=coeffs)

    def test_a_disturbance_past_a_double_at_tf_only_keeps_the_run(self, tmp_path):
        # The tf row is recorded by the loop body, which then steps past tf on
        # an inf disturbance: that step is not the run's, and the run ends.
        disturbances = DisturbanceSpec(channel1=(Step(t0=60.0095, amplitude=math.inf),))
        scenario = quiet_scenario(t_span=(60.0, 60.01), disturbances=disturbances)
        trace, metrics = simulate(scenario)
        assert len(trace.t) == 11 and trace.w[-1, 0] == math.inf
        assert np.isfinite(trace.x).all() and not trace.w[:-1].any()
        assert stream(scenario, tmp_path / "trace.csv") == metrics

    def test_energy_ratio_bounded_by_level(self):
        scenario = quiet_scenario(
            t_span=(60.0, 90.0),
            dt=5e-4,
            disturbances=DisturbanceSpec(channel2=(Sine(amplitude=0.05, frequency=1.5),)),
        )
        _, metrics = simulate(scenario)
        assert 0.0 < metrics.energy_ratio < 20.0**2

    def test_builtin_scenarios_run(self, shipped_runs):
        for name, (scenario, trace, metrics) in shipped_runs.items():
            assert np.all(np.isfinite(trace.x))
            assert metrics.rms_e > 0.0
            assert trace.t[0] == scenario.t_span[0]
            assert trace.t[-1] == pytest.approx(scenario.t_span[1], abs=1e-9)

    def test_ltv_and_lti_factories_differ(self):
        assert scenario_paper_ltv().plant_mode == "ltv"
        assert scenario_paper_lti().plant_mode == "lti_frozen"
        assert scenario_paper_ltv().design.gamma == 7.8
        assert scenario_paper_lti().design.gamma == 20.0

    @pytest.mark.parametrize("feedback", ["gyro_rate", "true_state"])
    def test_frozen_plant_is_a_one_breakpoint_schedule(self, feedback):
        # lti_frozen flies the design coefficients at every time: the same run
        # as a time-varying plant whose schedule has them as its one breakpoint.
        disturbances = DisturbanceSpec(channel1=(Noise(0.01, 3), Sine(0.02, 2.0)),
                                       channel2=(Step(62.0, 0.05),))
        frozen = scenario_paper_lti(t_span=(60.0, 65.0), feedback_source=feedback,
                                    disturbances=disturbances)
        one = CoefficientSchedule(((0.0, frozen.design.coeffs),))
        trace, metrics = simulate(frozen)
        ltv_trace, ltv_metrics = simulate(scenario_paper_lti(
            t_span=(60.0, 65.0), feedback_source=feedback, disturbances=disturbances,
            plant_mode="ltv", schedule=one,
        ))
        assert_traces_equal(trace, ltv_trace)
        assert metrics == ltv_metrics


TRACE_FIELDS = ("t", "x", "theta", "q", "delta", "u", "w", "q_meas")


def assert_traces_equal(a: SimulationTrace, b: SimulationTrace) -> None:
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def diverging_scenario():
    """The unstable-schedule run of test_divergence_reports_time_and_partial_trace."""
    wild = DynamicCoefficients(
        Z_v=-0.05, Z_q=600.0, Z_theta=-6.5, Z_delta=-0.001,
        M_v=-0.003, M_q=80.0, M_delta=-0.0001,
    )
    return quiet_scenario(
        schedule=CoefficientSchedule(((60.0, PITCH_COEFFS_T60), (61.0, wild))),
        disturbances=DisturbanceSpec(channel2=(Step(t0=60.0, amplitude=0.1),)),
        t_span=(60.0, 120.0),
        plant_mode="ltv",
    )


class TestStepChunks:
    """simulate precomputes and records _STEP_CHUNK steps at a time; the size never shows."""

    # 4096 is twice the default chunk: its traces too are the default's bits.
    CHUNKS = [1, 7, 4096, 10**9]

    # Disturbances are sampled per chunk.  A noise draw lasts 3 steps, so
    # draws straddle chunk boundaries; the step and the ramp start in the span.
    ALL_PRIMITIVES = DisturbanceSpec(
        channel1=(Noise(amplitude=0.05, seed=5, hold=3 * simulator.DEFAULT_DT),
                  Step(t0=80.0, amplitude=0.02)),
        channel2=(Sine(amplitude=0.05, frequency=3.0), Ramp(t0=80.3, slope=0.01)),
    )

    @pytest.fixture(scope="class", params=[
        (scenario_paper_ltv, "gyro_rate", (79.0, 80.8)),
        (scenario_paper_lti, "true_state", (79.0, 80.8)),
        (scenario_paper_ltv, "gyro_rate", (99.5, 102.0)),
        (scenario_paper_lti, "true_state", (79.5, 82.0)),
        (scenario_paper_ltv, "gyro_rate", (79.0, 80.8), ALL_PRIMITIVES),
    ], ids=["ltv-gyro", "lti-true", "ltv-gyro-reuse", "lti-true-reuse",
            "ltv-gyro-all-primitives"])
    def run(self, request):
        # 9000 steps: four boundaries of the default chunk (2048 steps), and
        # the end of the command ramp at 80 s.  The reuse spans (12500 steps)
        # cross the last schedule breakpoint (100 s) or the end of the
        # command (80 s) after 2500 steps, so the full chunks of 2048 or 4096
        # steps from the second one after the crossing on, and every later
        # chunk of 1 or 7, reuse the previous chunk's step table.
        factory, feedback, span, *disturbances = request.param
        scenario = factory(
            t_span=span,
            feedback_source=feedback,
            disturbances=disturbances[0] if disturbances else DisturbanceSpec(
                channel1=(Noise(amplitude=0.05, seed=11),),
                channel2=(Sine(amplitude=0.05, frequency=3.0),),
            ),
        )
        assert 2 * simulator._STEP_CHUNK < 9000
        return scenario, simulate(scenario)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_trace_and_metrics_do_not_depend_on_chunk(self, run, monkeypatch, chunk):
        scenario, (trace, metrics) = run
        monkeypatch.setattr(simulator, "_STEP_CHUNK", chunk)
        chunked_trace, chunked_metrics = simulate(scenario)
        assert_traces_equal(chunked_trace, trace)
        assert chunked_metrics == metrics

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_divergence_does_not_depend_on_chunk(self, monkeypatch, chunk):
        with pytest.raises(NonFiniteState) as expected:
            simulate(diverging_scenario())
        monkeypatch.setattr(simulator, "_STEP_CHUNK", chunk)
        with pytest.raises(NonFiniteState) as chunked:
            simulate(diverging_scenario())
        assert chunked.value.time == expected.value.time
        assert_traces_equal(chunked.value.trace, expected.value.trace)

    @pytest.mark.parametrize("factory, span, chunk, builds", [
        # Command over and plant frozen: the first chunk and the short last one.
        (scenario_paper_lti, (80.0, 100.0), 4096, 2),
        # Coefficients still interpolated towards the 100 s breakpoint: all 3 chunks.
        (scenario_paper_ltv, (90.0, 92.0), 4096, 3),
        # The same span in chunks of the default 2048 steps: all 5.
        (scenario_paper_ltv, (90.0, 92.0), None, 5),
    ], ids=["lti-after-command", "ltv-before-last-breakpoint",
            "ltv-before-last-breakpoint-default-chunk"])
    def test_step_table_is_built_once_per_distinct_chunk(self, monkeypatch, factory, span,
                                                         chunk, builds):
        if chunk is None:
            assert simulator._STEP_CHUNK == 2048
        else:
            monkeypatch.setattr(simulator, "_STEP_CHUNK", chunk)
        step_updates, built = simulator._step_updates, []

        def counted(*args):
            built.append(args)
            return step_updates(*args)

        monkeypatch.setattr(simulator, "_step_updates", counted)
        simulate(factory(t_span=span))
        assert len(built) == builds

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_memory_grows_with_the_trace_not_the_precompute(self):
        # The trace is 11 float64 columns, 88 bytes a step; a precompute of
        # the whole span held more than 800 bytes a step.  The child reads
        # its own peak (VmHWM): ru_maxrss would start at this process's peak,
        # inherited through fork and exec.
        code = (
            "from hinf_autopilot.simulator import scenario_paper_ltv, simulate\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) * 1024 for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "simulate(scenario_paper_ltv(t_span=(60.0, 61.0)))\n"
            "before = peak()\n"
            "trace, _ = simulate(scenario_paper_ltv(t_span=(60.0, 100.0)))\n"
            "print((peak() - before) / (len(trace.t) - 1))\n"
        )
        src = os.path.dirname(os.path.dirname(simulator.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert float(out) <= 400.0


class TestComputeMetrics:
    @staticmethod
    def synthetic_trace(t, e, w1=None, w2=None, delta=None):
        n = len(t)
        zeros = np.zeros(n)
        x = np.column_stack([zeros, e, zeros])
        return SimulationTrace(
            t=t,
            x=x,
            theta=zeros.copy(),
            q=-np.asarray(e),
            delta=zeros.copy() if delta is None else delta,
            u=zeros.copy(),
            w=np.column_stack(
                [zeros if w1 is None else w1, zeros if w2 is None else w2]
            ),
            q_meas=zeros.copy(),
        )

    def test_empty_trace_raises_value_error(self):
        empty = self.synthetic_trace(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match="trace is empty"):
            compute_metrics(empty)

    def test_one_row_trace(self):
        trace = self.synthetic_trace(np.array([60.0]), np.array([-0.25]),
                                     w1=np.array([0.5]), delta=np.array([0.125]))
        assert compute_metrics(trace) == Metrics(0.0, 0.25, 0.0, 0.125, 0.0, 0.0)

    def test_all_zero_trace(self):
        t = np.linspace(0.0, 1.0, 101)
        metrics = compute_metrics(self.synthetic_trace(t, np.zeros(101)))
        assert metrics == Metrics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_constant_error(self):
        t = np.linspace(0.0, 2.0, 201)
        metrics = compute_metrics(self.synthetic_trace(t, np.full(201, 0.01)))
        assert metrics.rms_e == pytest.approx(0.01, rel=1e-12)
        assert metrics.max_abs_e == pytest.approx(0.01)

    def test_sine_rms_over_integer_periods(self):
        t = np.linspace(0.0, 2.0 * math.pi * 3.0, 60_001)
        metrics = compute_metrics(self.synthetic_trace(t, 0.02 * np.sin(t)))
        assert metrics.rms_e == pytest.approx(0.02 / math.sqrt(2.0), rel=1e-6)

    def test_energy_ratio_of_known_signals(self):
        t = np.linspace(0.0, 10.0, 10_001)
        metrics = compute_metrics(
            self.synthetic_trace(t, np.full_like(t, 0.3), w1=np.full_like(t, 0.6))
        )
        assert metrics.energy_ratio == pytest.approx(0.25, rel=1e-9)

    @staticmethod
    def whole_column_metrics(trace, rate_limit=SERVO_RATE_LIMIT, integrate=np.trapezoid):
        """compute_metrics' formulas on whole columns, through np.trapezoid or `integrate`."""
        t = trace.t
        span = float(t[-1] - t[0])
        int_e, e = trace.x[:, 0], trace.x[:, 1]
        e_energy = float(integrate(e * e, t))
        theta_energy = float(integrate(int_e * int_e, t))
        w_energy = float(integrate(trace.w[:, 0] ** 2 + trace.w[:, 1] ** 2, t))
        d_delta = np.abs(np.diff(trace.delta))
        dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
        saturated = d_delta >= rate_limit * dt * (1.0 - 1e-9)
        return Metrics(
            rms_e=math.sqrt(e_energy / span) if span > 0 else 0.0,
            max_abs_e=float(np.abs(e).max()),
            rms_theta_err=math.sqrt(theta_energy / span) if span > 0 else 0.0,
            max_abs_delta=float(np.abs(trace.delta).max()),
            servo_saturation_fraction=float(saturated.mean()) if len(d_delta) else 0.0,
            energy_ratio=e_energy / w_energy if w_energy > 0.0 else 0.0,
        )

    @staticmethod
    def random_trace(n, seed):
        """Jittered time steps, values over 15 decades with -0.0 among them,
        a constant w column and a servo that hits its rate bound on about half its steps."""
        rng = np.random.default_rng(seed)
        t = 60.0 + np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e-3

        def column():
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 3.0, n)
            values[rng.random(n) < 0.1] = -0.0
            return values

        dt = float(t[1] - t[0]) if n > 1 else 1.0
        factors = rng.uniform(0.5, 1.5, n - 1)
        factors[:2] = (1.5, 0.5)[:n - 1]  # the first step saturates, the second does not
        steps = SERVO_RATE_LIMIT * dt * rng.choice([-1.0, 1.0], n - 1) * factors
        return SimulationTrace(
            t=t, x=np.column_stack([column(), column(), column()]), theta=column(), q=column(),
            delta=np.concatenate([[0.0], np.cumsum(steps)]), u=column(),
            w=np.column_stack([column(), np.full(n, 0.3)]), q_meas=column(),
        )

    @staticmethod
    def float_bits(metrics):
        return [value.hex() for value in dataclasses.astuple(metrics)]

    @pytest.mark.parametrize("rows", [
        1, 2, 3, simulator._METRIC_BLOCK - 1, simulator._METRIC_BLOCK,
        simulator._METRIC_BLOCK + 1,
    ])
    def test_blocks_give_the_whole_column_bits(self, rows):
        # Up to one block of steps, the one block sum is np.trapezoid's sum.
        trace = self.random_trace(rows, seed=rows)
        metrics, expected = compute_metrics(trace), self.whole_column_metrics(trace)
        assert metrics == expected
        assert self.float_bits(metrics) == self.float_bits(expected)
        if rows > 2:
            assert 0.0 < metrics.servo_saturation_fraction < 1.0

    def test_a_full_block_is_summed_pairwise(self):
        # Over this ramp's one block, np.trapezoid's pairwise sum is not the
        # exactly rounded one; the block sum must be the former.
        rows = simulator._METRIC_BLOCK + 1
        t = 60.0 + 2e-4 * np.arange(rows)
        trace = self.synthetic_trace(t, 1e-3 * np.arange(rows))
        e = trace.x[:, 1]
        assert float(np.trapezoid(e * e, t)) != exact_energy(e * e, t)
        assert self.float_bits(compute_metrics(trace)) == \
            self.float_bits(self.whole_column_metrics(trace))

    @pytest.mark.parametrize("rows", [
        simulator._METRIC_BLOCK + 2, 3 * simulator._METRIC_BLOCK + 5,
    ])
    def test_blocks_are_within_1e_15_of_the_exact_sums(self, rows):
        trace = self.random_trace(rows, seed=rows)
        assert_near_exact_metrics(compute_metrics(trace), trace)

    def test_paper_ltv_metrics_are_within_1e_15_of_the_exact_sums(self):
        trace, metrics = simulate(scenario_paper_ltv(t_span=(60.0, 70.0)))
        assert len(trace.t) > simulator._METRIC_BLOCK + 1
        assert_near_exact_metrics(metrics, trace)

    def test_energy_past_a_double_is_inf(self):
        # Each block's energy is finite, about 0.6 of the largest double;
        # their exact total is not, so math.fsum overflows.
        rows = 2 * simulator._METRIC_BLOCK + 1
        t = np.arange(rows, dtype=float)
        metrics = compute_metrics(self.synthetic_trace(t, np.full(rows, 5.7e151)))
        assert metrics.rms_e == math.inf
        assert metrics.max_abs_e == 5.7e151

    def test_allocates_blocks_and_no_column(self):
        rows = 400_000
        trace = self.random_trace(rows, seed=0)
        compute_metrics(trace)  # first-call allocations are not the run's
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            compute_metrics(trace)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block = 8 * (simulator._METRIC_BLOCK + 1)
        # Three blocks of trapezoid terms and two of temporaries; 16 KiB for
        # the Python objects: the slices, the block sums and the peaks.
        assert peak <= 5 * block + 16384


def exact_energy(y, t) -> float:
    """The exactly rounded sum of the trapezoid terms of y over t."""
    return math.fsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)


def assert_near_exact_metrics(metrics, trace, rate_limit=SERVO_RATE_LIMIT):
    """The energy metrics within 1e-15 relative of exactly rounded sums; the rest exact."""
    exact = TestComputeMetrics.whole_column_metrics(trace, rate_limit, integrate=exact_energy)
    for name in ("rms_e", "rms_theta_err", "energy_ratio"):
        value, expected = getattr(metrics, name), getattr(exact, name)
        assert abs(value - expected) <= 1e-15 * abs(expected), (name, value, expected)
    assert dataclasses.replace(metrics, rms_e=0.0, rms_theta_err=0.0, energy_ratio=0.0) == \
        dataclasses.replace(exact, rms_e=0.0, rms_theta_err=0.0, energy_ratio=0.0)


def trace_columns(trace: SimulationTrace) -> list:
    """The trace's 11 columns in the CSV's order."""
    return [trace.t, trace.x[:, 0], trace.x[:, 1], trace.x[:, 2], trace.theta, trace.q,
            trace.delta, trace.u, trace.w[:, 0], trace.w[:, 1], trace.q_meas]


def reference_csv(trace: SimulationTrace) -> bytes:
    """The trace CSV written one row at a time with `repr` of each value."""
    lines = ["t,int_e,e,vz,theta_rad,q_rad_s,delta_rad,u_rad,w1,w2,q_meas_rad_s"]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*trace_columns(trace))]
    return ("\n".join(lines) + "\n").encode()


def random_trace(n: int, seed: int = 0) -> SimulationTrace:
    """Trace of n rows with values of every magnitude and a few special floats."""
    rng = np.random.default_rng(seed)

    def col(width=None):
        shape = (n,) if width is None else (n, width)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        flat = values.reshape(-1)
        flat[: min(4, flat.size)] = [-0.0, math.inf, -math.inf, math.nan][: min(4, flat.size)]
        return values

    return SimulationTrace(
        t=60.0 + 2e-4 * np.arange(n), x=col(3), theta=col(), q=col(), delta=col(),
        u=col(), w=col(2), q_meas=col(),
    )


@pytest.fixture
def forked_calls(monkeypatch):
    """Worker counts of the executors `_fan_out` creates."""
    calls = []
    executor = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        calls.append(max_workers)
        return executor(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return calls


class TestFormatBlock:
    @pytest.mark.parametrize("rows", [1, 1000])
    def test_every_magnitude_and_special_float_is_the_row_by_row_text(self, rows):
        trace = random_trace(rows, seed=rows)
        _, body = reference_csv(trace).split(b"\n", 1)
        assert simulator._format_block(trace_columns(trace)) == body


class TestFanOut:
    def test_in_flight_bound(self, monkeypatch):
        # Results submitted to the two workers but not yet yielded; a fan-out
        # that submitted every item up front would hold all 20.
        submitted = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(simulator, "_worker_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        results, in_flight = [], []
        for value in simulator._fan_out(lambda k: k * k, range(20)):
            in_flight.append(len(submitted) - len(results))
            results.append(value)
        assert results == [k * k for k in range(20)]
        assert len(submitted) == 20
        assert max(in_flight) == 2 * simulator._BLOCKS_PER_WORKER

    def test_iterator_is_taken_lazily_with_the_same_bound(self, monkeypatch):
        # A caller may reuse an item's buffer once it is yielded: when an item
        # is taken, at most workers * _BLOCKS_PER_WORKER earlier ones are not.
        taken, results, waiting = [], [], []

        def items():
            for k in range(20):
                waiting.append(len(taken) - len(results))
                taken.append(k)
                yield k

        monkeypatch.setattr(simulator, "_worker_count", lambda: 2)
        for value in simulator._fan_out(lambda k: k * k, items()):
            results.append(value)
        assert results == [k * k for k in range(20)]
        assert max(waiting) == 2 * simulator._BLOCKS_PER_WORKER


def stream(scenario, path) -> Metrics:
    with open(path, "wb") as handle:
        return simulate_to_csv(scenario, handle)


class TestSimulateToCsv:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_and_metrics_are_those_of_simulate(self, tmp_path, monkeypatch, forked_calls,
                                                     workers):
        # 2000 steps across the 100 s breakpoint in chunks of 32: 32 ring
        # slots' worth, so each of the 2 * workers + 1 slots is filled four
        # times or more; two or three workers format them in forked processes.
        monkeypatch.setattr(simulator, "_STEP_CHUNK", 32)
        monkeypatch.setattr(simulator, "_worker_count", lambda: workers)
        scenario = scenario_paper_ltv(
            t_span=(99.0, 101.0), dt=1e-3,
            disturbances=DisturbanceSpec(
                channel1=(Noise(amplitude=0.05, seed=3, hold=1e-3), Sine(0.02, 2.0)),
                channel2=(Step(t0=100.0, amplitude=0.05),),
            ),
        )
        trace, metrics = simulate(scenario)
        assert stream(scenario, tmp_path / "streamed.csv") == metrics
        assert forked_calls == ([] if workers == 1 else [workers])
        assert (tmp_path / "streamed.csv").read_bytes() == reference_csv(trace)
        assert metrics == compute_metrics(trace, scenario.servo_rate_limit)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [64, 100])
    def test_metric_blocks_across_chunks_and_slots(self, tmp_path, monkeypatch, workers, block):
        # 2000 steps in chunks of 32 and slots of 64 rows.  Blocks of 64 steps
        # end at chunk starts and slot edges; blocks of 100 also mid-chunk,
        # and the last of 20 blocks ends at tf.
        scenario = scenario_paper_ltv(
            t_span=(99.0, 101.0), dt=1e-3,
            disturbances=DisturbanceSpec(channel1=(Noise(amplitude=0.05, seed=3, hold=1e-3),),
                                         channel2=(Step(t0=100.0, amplitude=0.05),)),
        )
        monkeypatch.setattr(simulator, "_METRIC_BLOCK", block)
        trace, metrics = simulate(scenario)
        monkeypatch.setattr(simulator, "_STEP_CHUNK", 32)
        monkeypatch.setattr(simulator, "_worker_count", lambda: workers)
        float_bits = TestComputeMetrics.float_bits
        assert float_bits(stream(scenario, tmp_path / "trace.csv")) == float_bits(metrics)
        assert float_bits(simulate(scenario)[1]) == float_bits(metrics)
        assert float_bits(compute_metrics(trace, scenario.servo_rate_limit)) == \
            float_bits(metrics)
        assert_near_exact_metrics(metrics, trace, scenario.servo_rate_limit)

    @pytest.mark.parametrize("span", [
        (60.0, 60.001), (60.0, 60.064), (60.0, 60.065), (60.0, 60.127), (60.0, 60.128),
        (60.0, 60.129),
    ])
    def test_one_step_and_slot_edges(self, tmp_path, monkeypatch, span):
        # In chunks of 64 and slots of 128 rows: one step; one chunk and tf;
        # a second chunk of one step and tf; tf as a slot's last row, as the
        # one row past it, and alone with one step in the next slot.
        monkeypatch.setattr(simulator, "_STEP_CHUNK", 64)
        scenario = quiet_scenario(
            t_span=span, disturbances=DisturbanceSpec(channel2=(Step(60.0, 0.01),)))
        trace, metrics = simulate(scenario)
        assert stream(scenario, tmp_path / "streamed.csv") == metrics
        assert (tmp_path / "streamed.csv").read_bytes() == reference_csv(trace)

    def test_run_within_one_slot_is_formatted_in_process(self, tmp_path, monkeypatch,
                                                          forked_calls):
        # 2500 steps at the default dt with noise held over 5 steps: 2501
        # rows, below one slot of 4096, so one item and no fork.
        monkeypatch.setattr(simulator, "_worker_count", lambda: 2)
        scenario = quiet_scenario(
            t_span=(60.0, 60.5), dt=2e-4,
            disturbances=DisturbanceSpec(
                channel1=(Noise(amplitude=0.05, seed=3, hold=1e-3),),
                channel2=(Step(t0=60.2, amplitude=0.01),),
            ),
        )
        trace, metrics = simulate(scenario)
        assert stream(scenario, tmp_path / "trace.csv") == metrics
        assert forked_calls == []
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(trace)

    def test_reads_back_with_genfromtxt(self, tmp_path):
        scenario = quiet_scenario(
            t_span=(60.0, 60.5),
            disturbances=DisturbanceSpec(channel2=(Step(t0=60.0, amplitude=0.01),)),
        )
        trace, _ = simulate(scenario)
        path = tmp_path / "trace.csv"
        stream(scenario, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,int_e,e,vz,theta_rad,q_rad_s,delta_rad,u_rad,w1,w2,q_meas_rad_s"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape == (len(trace.t), 11)
        for k, column in enumerate(trace_columns(trace)):
            assert np.array_equal(data[:, k], column), k

    def test_worker_exception_reaches_caller(self, tmp_path, monkeypatch):
        parent = os.getpid()
        format_block = simulator._format_block

        def fail_in_worker(cols):
            if os.getpid() != parent:
                raise RuntimeError(f"block of {len(cols[0])} rows failed")
            return format_block(cols)

        monkeypatch.setattr(simulator, "_STEP_CHUNK", 32)
        monkeypatch.setattr(simulator, "_worker_count", lambda: 2)
        monkeypatch.setattr(simulator, "_format_block", fail_in_worker)
        with pytest.raises(RuntimeError, match="block of 64 rows failed"):
            stream(quiet_scenario(t_span=(60.0, 61.0)), tmp_path / "trace.csv")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_raises_at_the_time_of_simulate(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(simulator, "_worker_count", lambda: workers)
        with pytest.raises(NonFiniteState) as expected:
            simulate(diverging_scenario())
        with pytest.raises(NonFiniteState) as streamed:
            stream(diverging_scenario(), tmp_path / "trace.csv")
        assert streamed.value.time == expected.value.time
        assert streamed.value.trace is None


class TestNonFiniteStatePickles:
    def test_round_trip(self):
        err = pickle.loads(pickle.dumps(NonFiniteState(61.5, None)))
        assert isinstance(err, NonFiniteState)
        assert (err.time, err.trace) == (61.5, None)
        assert str(err) == "state became non-finite at t=61.5 s"

    def test_round_trip_keeps_the_partial_trace(self):
        trace = random_trace(3)
        err = pickle.loads(pickle.dumps(NonFiniteState(60.0004, trace)))
        assert err.time == 60.0004
        assert reference_csv(err.trace) == reference_csv(trace)


class TestScenarioValidation:
    def test_dt_cap(self):
        with pytest.raises(ValueError):
            quiet_scenario(dt=2e-3)

    def test_span_ordering(self):
        with pytest.raises(ValueError):
            quiet_scenario(t_span=(10.0, 5.0))

    @pytest.mark.parametrize("t_span, dt", [
        ((60.0, 60.0005), 2e-4),  # 2.5 steps: the last sample would be 60.0006
        ((60.0, 61.0), 3e-4),  # 3333.3 steps: the last sample would be 60.9999
        ((60.0, math.inf), 1e-3),
    ])
    def test_span_of_whole_steps(self, t_span, dt):
        with pytest.raises(ValueError, match="t_span"):
            quiet_scenario(t_span=t_span, dt=dt)

    @pytest.mark.parametrize("t_span", [(60.0,), (60.0, 61.0, 62.0), 60.0, (None, 61.0)])
    def test_span_that_is_not_a_pair_of_numbers(self, t_span):
        # (60, 61, 62) was cut to (60, 61), and (60,) raised IndexError.
        with pytest.raises(ValueError, match="t_span must be a pair"):
            quiet_scenario(t_span=t_span)

    def test_span_whose_step_count_overflows(self):
        # 1e308 s is a finite span, but its step count is inf: round() would raise
        # OverflowError, which is not the ValueError a bad scenario raises.
        with pytest.raises(ValueError, match="t_span"):
            quiet_scenario(t_span=(60.0, 1e308))

    def test_step_count_cap(self):
        # 9.6 GB of trace and scratch at the cap; one step more is refused.
        at_cap = quiet_scenario(t_span=(0.0, simulator.MAX_STEPS * 1e-3))
        assert at_cap.n_steps == simulator.MAX_STEPS
        with pytest.raises(ValueError, match="at most"):
            quiet_scenario(t_span=(0.0, (simulator.MAX_STEPS + 1) * 1e-3))

    def test_resolves_the_run_once(self):
        # n_steps and plant_schedule are not fields: equality, replace and
        # the ten fields are as before, and a changed copy resolves again.
        ltv = quiet_scenario(plant_mode="ltv", t_span=(60.0, 61.0))
        assert (ltv.n_steps, ltv.plant_schedule) == (1000, ltv.schedule)
        frozen = dataclasses.replace(ltv, plant_mode="lti_frozen", dt=5e-4)
        assert frozen.n_steps == 2000
        assert frozen.plant_schedule.breakpoints == (
            (frozen.design.t_design, frozen.design.coeffs),)
        assert len(dataclasses.fields(frozen)) == 10
        assert not {"n_steps", "plant_schedule"} & {f.name for f in dataclasses.fields(frozen)}

    def test_fields_cannot_skip_the_checks(self):
        # Assigning dt after construction would run 3333 steps ending at
        # 60.9999; a copy with the new dt is checked like a new scenario.
        s = quiet_scenario(t_span=(60.0, 61.0), dt=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.dt = 3e-4
        with pytest.raises(ValueError, match="t_span"):
            dataclasses.replace(s, dt=3e-4)

    @pytest.mark.parametrize("hold", [1e-9, 1e-7, 0.99e-4])
    def test_noise_hold_below_a_tenth_of_dt(self, hold):
        # The noise window holds every draw from its first index to its last:
        # 1e7 draws a second at hold 1e-7, 8 GB of draws over a 100 s span.
        noise = DisturbanceSpec(channel2=(Noise(amplitude=0.1, seed=1, hold=hold),))
        with pytest.raises(ValueError, match="noise hold"):
            quiet_scenario(dt=1e-3, disturbances=noise)

    def test_noise_hold_of_a_tenth_of_dt(self):
        noise = DisturbanceSpec(channel1=(Noise(amplitude=0.1, seed=1, hold=1e-4),))
        trace, _ = simulate(quiet_scenario(dt=1e-3, t_span=(60.0, 60.01), disturbances=noise))
        assert len(trace.t) == 11

    def test_enum_fields(self):
        with pytest.raises(ValueError):
            quiet_scenario(feedback_source="estimated")
        with pytest.raises(ValueError):
            quiet_scenario(plant_mode="nonlinear")
