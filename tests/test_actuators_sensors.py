"""Servo and gyro blocks: simulate's traces against the conftest reference
models, bitwise, and analytic cases on those models with the shipped constants.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from conftest import integrate_reference_gyro, integrate_reference_servo
from hinf_autopilot.actuators_sensors import (
    GYRO_DAMPING_TERM,
    GYRO_NATURAL_FREQ,
    SERVO_RATE_LIMIT,
    SERVO_TIME_CONSTANT,
)
from hinf_autopilot.simulator import (
    MAX_DT,
    DisturbanceSpec,
    Step,
    scenario_paper_lti,
    scenario_paper_ltv,
    simulate,
)


def servo_once(delta, command, dt, tau=SERVO_TIME_CONSTANT, rate_limit=SERVO_RATE_LIMIT):
    return integrate_reference_servo(delta, lambda t: command, dt, 1, tau, rate_limit)


def gyro_once(x1, x2, q_true, dt):
    return integrate_reference_gyro(
        x1, x2, lambda t: q_true, dt, 1, GYRO_NATURAL_FREQ, GYRO_DAMPING_TERM
    )


def lti_scenario(**overrides):
    return scenario_paper_lti(**{"t_span": (60.0, 65.0), "dt": 5e-4, **overrides})


class TestServo:
    def test_equilibrium(self):
        assert servo_once(0.123, 0.123, 1e-3) == 0.123

    def test_small_step_first_order_response(self):
        # 0.01 rad command keeps the rate (0.1 rad/s) under the 0.4363 limit.
        dt = 1e-4
        delta = integrate_reference_servo(
            0.0, lambda t: 0.01, dt, 1000, SERVO_TIME_CONSTANT, SERVO_RATE_LIMIT
        )
        analytic = 0.01 * (1.0 - math.exp(-1.0))
        # Forward-Euler truncation budget: 2 * dt * |rate|.
        assert abs(delta - analytic) < 2.0 * dt * 0.1
        assert delta == pytest.approx(0.006321, abs=2e-5)

    def test_large_step_clamps(self):
        delta = servo_once(0.0, 0.1745, 1e-3)
        assert delta == pytest.approx(SERVO_RATE_LIMIT * 1e-3, rel=1e-12)
        assert delta == pytest.approx(4.363e-4, abs=5e-7)

    def test_clamped_trajectory_matches_dense_reference(self):
        # 10 ms of a saturating command at dt=1e-3, against a dt=1e-6 run.
        delta = 0.0
        for _ in range(10):
            delta = servo_once(delta, 0.1745, 1e-3)
        reference = integrate_reference_servo(
            0.0, lambda t: 0.1745, 1e-6, 10_000, SERVO_TIME_CONSTANT, SERVO_RATE_LIMIT
        )
        # While fully saturated both integrations advance at exactly the limit.
        assert delta == pytest.approx(reference, rel=1e-9)

    def test_rate_bound_invariant(self):
        rng = np.random.default_rng(2)
        dt = 5e-4
        delta = 0.0
        for _ in range(4000):
            new = servo_once(delta, float(rng.uniform(-0.5, 0.5)), dt)
            assert abs(new - delta) / dt <= SERVO_RATE_LIMIT + 1e-12
            delta = new

    def test_dt_validation(self):
        # The servo is stepped with the scenario's dt, which must be positive.
        with pytest.raises(ValueError):
            lti_scenario(dt=0.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            lti_scenario(servo_tau=-1.0)
        with pytest.raises(ValueError):
            lti_scenario(servo_rate_limit=0.0)
        # NaN fails every comparison, so a `<= 0` check would let it through.
        for field in ("servo_tau", "servo_rate_limit"):
            with pytest.raises(ValueError, match="servo parameters"):
                lti_scenario(**{field: math.nan})

    def test_infinite_rate_limit_is_allowed(self):
        # +inf is a valid non-binding rate limit.
        assert lti_scenario(servo_rate_limit=math.inf).servo_rate_limit == math.inf

    @pytest.mark.parametrize("step, saturated", [(5.0, True), (0.0, False)])
    def test_trace_is_the_reference_servo(self, step, saturated):
        # Stepped over the trace's own commands, the reference servo gives the
        # trace's deflection bitwise, at the rate bound (violent step
        # disturbance) and away from it.
        scenario = lti_scenario(
            disturbances=DisturbanceSpec(channel2=(Step(t0=61.0, amplitude=step),))
        )
        trace, metrics = simulate(scenario)
        assert (metrics.servo_saturation_fraction > 0.5) == saturated
        assert np.abs(trace.delta).max() > 0.0
        delta, u = trace.delta.tolist(), trace.u.tolist()
        stepped = [servo_once(d, c, scenario.dt, scenario.servo_tau, scenario.servo_rate_limit)
                   for d, c in zip(delta[:-1], u[:-1])]
        assert stepped == delta[1:]


class TestGyro:
    def test_damping_ratio(self):
        assert GYRO_DAMPING_TERM / (2.0 * GYRO_NATURAL_FREQ) == 0.25

    def test_unit_dc_gain(self):
        dt = 2e-4
        x1, _ = integrate_reference_gyro(  # far beyond the ~0.08 s settling time
            0.0, 0.0, lambda t: 0.02, dt, int(0.3 / dt), GYRO_NATURAL_FREQ,
            GYRO_DAMPING_TERM,
        )
        assert abs(x1 - 0.02) < 1e-9

    def test_decay_from_offset(self):
        dt = 2e-4
        x1, _ = integrate_reference_gyro(
            0.01, 0.0, lambda t: 0.0, dt, int(0.2 / dt), GYRO_NATURAL_FREQ,
            GYRO_DAMPING_TERM,
        )
        assert abs(x1) < 1e-6
        ref_x1, _ = integrate_reference_gyro(
            0.01, 0.0, lambda t: 0.0, 1e-6, 200_000, GYRO_NATURAL_FREQ, GYRO_DAMPING_TERM
        )
        assert abs(ref_x1) < 1e-6
        assert x1 == pytest.approx(ref_x1, abs=1e-9)

    def test_fourth_order_convergence(self):
        # Smooth transient (constant input, offset initial state); the input
        # hold is then exact and the stepping error is the integrator's own.
        # Errors against a dt=1e-6 reference must shrink >= 12x per halving.
        horizon = 0.02
        q_const = 0.005
        ref_x1, _ = integrate_reference_gyro(
            0.01, 0.0, lambda t: q_const, 1e-6, int(horizon / 1e-6),
            GYRO_NATURAL_FREQ, GYRO_DAMPING_TERM,
        )
        errors = []
        for dt in (4e-4, 2e-4, 1e-4):
            x1, _ = integrate_reference_gyro(
                0.01, 0.0, lambda t: q_const, dt, int(round(horizon / dt)),
                GYRO_NATURAL_FREQ, GYRO_DAMPING_TERM,
            )
            errors.append(abs(x1 - ref_x1))
        assert errors[0] / errors[1] >= 12.0
        assert errors[1] / errors[2] >= 12.0

    def test_resonant_gain(self):
        # Drive at the resonant frequency; steady amplitude is the analytic
        # second-order peak 1/(2 zeta sqrt(1 - zeta^2)).
        zeta = 0.25
        w_r = GYRO_NATURAL_FREQ * math.sqrt(1.0 - 2.0 * zeta**2)
        expected = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2))
        amp = 0.01
        dt = 1e-5
        x1 = x2 = 0.0
        t = 0.0
        peak = 0.0
        n_settle = int(0.25 / dt)
        n_measure = int(round((2.0 * math.pi / w_r) / dt))  # one full period
        for k in range(n_settle + n_measure):
            x1, x2 = gyro_once(x1, x2, amp * math.sin(w_r * t), dt)
            t += dt
            if k >= n_settle:
                peak = max(peak, abs(x1))
        assert peak / amp == pytest.approx(expected, rel=1e-3)

    def test_step_guard(self):
        # The one step guard is the scenario's: 0 < dt <= MAX_DT = 1 ms.
        assert MAX_DT == 1e-3
        with pytest.raises(ValueError):
            lti_scenario(dt=2e-3)
        with pytest.raises(ValueError):
            lti_scenario(dt=-1e-4)

    def test_settled_state(self):
        # The loop starts the gyro settled on the initial true rate.
        trace, _ = simulate(scenario_paper_ltv(t_span=(60.0, 60.1)))
        assert trace.q[0] != 0.0
        assert trace.q_meas[0] == trace.q[0]
        x1, x2 = gyro_once(0.015, 0.0, 0.015, 5e-4)
        assert x1 == pytest.approx(0.015, abs=1e-15)
        assert x2 == pytest.approx(0.0, abs=1e-12)

    def test_purity(self):
        # simulate leaves its scenario (and everything it holds) untouched.
        scenario = scenario_paper_ltv(t_span=(60.0, 60.5))
        before = pickle.dumps(scenario)
        simulate(scenario)
        assert pickle.dumps(scenario) == before

    @pytest.mark.parametrize("feedback_source", ["gyro_rate", "true_state"])
    def test_trace_is_the_reference_gyro(self, feedback_source):
        scenario = scenario_paper_ltv(t_span=(60.0, 62.0), feedback_source=feedback_source)
        trace, _ = simulate(scenario)
        q, q_meas = trace.q.tolist(), trace.q_meas.tolist()
        assert q_meas != q
        stepped, x1, x2 = [], q[0], 0.0
        for q_k in q:
            stepped.append(x1)
            x1, x2 = gyro_once(x1, x2, q_k, scenario.dt)
        assert stepped == q_meas
