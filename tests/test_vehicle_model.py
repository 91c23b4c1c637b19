"""Plant assembly, coefficient schedules, command profiles, forcing terms."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import ZERO_COEFFS, frozen_plant_scenario, production_step_map, propagate
from hinf_autopilot.controller import design_point_t60, synthesize
from hinf_autopilot.simulator import _stage_grids, scenario_paper_ltv, simulate
from hinf_autopilot.vehicle_model import (
    PITCH_COEFFS_T60,
    PITCH_COEFFS_T100,
    CoefficientSchedule,
    CommandProfile,
    DynamicCoefficients,
    assemble_pitch_plant,
    coefficients_at,
    default_command_profile,
    default_schedule,
    load_coefficient_schedule,
    load_command_profile,
    pitch_terms,
)


class TestCoefficientsAt:
    def test_anchor_values_exact(self):
        schedule = default_schedule()
        assert coefficients_at(schedule, 60.0) == PITCH_COEFFS_T60
        assert coefficients_at(schedule, 100.0) == PITCH_COEFFS_T100
        # Spot values from the shipped snapshots.
        assert coefficients_at(schedule, 60.0).Z_v == -0.054252
        assert coefficients_at(schedule, 60.0).M_delta == -1.9594
        assert coefficients_at(schedule, 100.0).Z_q == 1827.8
        assert coefficients_at(schedule, 100.0).M_q == -0.014108

    def test_midpoint_matches_interpolation_oracle(self):
        schedule = default_schedule()
        mid = coefficients_at(schedule, 80.0)
        assert mid.Z_q == pytest.approx((608.84 + 1827.8) / 2.0, abs=1e-12)
        lo = PITCH_COEFFS_T60.as_array()
        hi = PITCH_COEFFS_T100.as_array()
        oracle = np.array(
            [np.interp(80.0, [60.0, 100.0], [a, b]) for a, b in zip(lo, hi)]
        )
        assert np.allclose(mid.as_array(), oracle, rtol=0, atol=1e-15)

    def test_clamping_outside_range(self):
        schedule = default_schedule()
        assert coefficients_at(schedule, 0.0) == PITCH_COEFFS_T60
        assert coefficients_at(schedule, 1e4) == PITCH_COEFFS_T100

    def test_values_bounded_by_endpoints(self):
        schedule = default_schedule()
        lo = np.minimum(PITCH_COEFFS_T60.as_array(), PITCH_COEFFS_T100.as_array())
        hi = np.maximum(PITCH_COEFFS_T60.as_array(), PITCH_COEFFS_T100.as_array())
        for t in np.linspace(60.0, 100.0, 41):
            vals = coefficients_at(schedule, float(t)).as_array()
            assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)

    @pytest.mark.parametrize("schedule", [
        default_schedule(),
        CoefficientSchedule(((60.0, PITCH_COEFFS_T60),)),
        CoefficientSchedule(((60.0, PITCH_COEFFS_T60), (80.0, ZERO_COEFFS),
                             (100.0, PITCH_COEFFS_T100))),
    ])
    def test_schedule_at_array_is_coefficients_at_each_time(self, schedule):
        # Breakpoints, points between them and clamped points on both sides,
        # over a 2-D array of times.
        times = np.array([[0.0, 60.0, 60.0 + 1e-9, 73.1], [80.0, 99.99, 100.0, 1e4]])
        rows = schedule.at(times)
        assert rows.shape == (2, 4, 7)
        for index, t in np.ndenumerate(times):
            expected = coefficients_at(schedule, float(t)).as_array()
            assert np.array_equal(rows[index], expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientSchedule(())
        with pytest.raises(ValueError):
            CoefficientSchedule(((1.0, ZERO_COEFFS), (1.0, ZERO_COEFFS)))
        with pytest.raises(ValueError):
            DynamicCoefficients(math.nan, 0, 0, 0, 0, 0, 0)


class TestAssemblePitchPlant:
    def test_t60_entries(self):
        plant = assemble_pitch_plant(PITCH_COEFFS_T60)
        assert plant.A[1, 1] == -0.18404
        assert plant.A[1, 2] == +0.003439  # minus M_v with M_v negative
        assert plant.A[2, 0] == +6.4939
        assert plant.B[1, 0] == +1.9594
        assert plant.B[2, 0] == -3.4855

    def test_t100_entries(self):
        plant = assemble_pitch_plant(PITCH_COEFFS_T100)
        assert plant.A[2, 1] == -1827.8
        assert plant.B[1, 0] == +2.1086

    def test_structural_entries(self):
        plant = assemble_pitch_plant(ZERO_COEFFS)
        expected_A = np.zeros((3, 3))
        expected_A[0, 1] = 1.0
        assert np.array_equal(plant.A, expected_A)
        assert np.array_equal(plant.B, np.zeros((3, 1)))
        assert np.array_equal(plant.B_w, np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(plant.C_meas, np.array([[0.0, 1.0, 0.0]]))

    def test_pitch_terms_over_rows_are_the_plant_at_each_row(self):
        # Rows of any leading shape: each (A, B, f) entry equals the plant
        # assembled at that row, and f is the affine command forcing.
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(2, 3, 7))
        qc, dqc, iqc = rng.normal(size=(3, 2, 3))
        A, B, B_w, f = pitch_terms(rows, qc, dqc, iqc)
        assert (A.shape, B.shape, B_w.shape, f.shape) == ((2, 3, 3, 3), (2, 3, 3), (3, 2), (2, 3, 3))
        for index in np.ndindex(2, 3):
            c = DynamicCoefficients(*rows[index])
            plant = assemble_pitch_plant(c)
            assert np.array_equal(A[index], plant.A)
            assert np.array_equal(B[index], plant.B[:, 0])
            assert np.array_equal(B_w, plant.B_w)
            assert np.array_equal(f[index], [0.0, dqc[index] - c.M_q * qc[index],
                                             c.Z_q * qc[index] + c.Z_theta * iqc[index]])

    def test_coefficients_recoverable(self):
        # The assembly map is injective on the non-structural entries.
        plant = assemble_pitch_plant(PITCH_COEFFS_T60)
        recovered = DynamicCoefficients(
            Z_v=plant.A[2, 2],
            Z_q=-plant.A[2, 1],
            Z_theta=-plant.A[2, 0],
            Z_delta=plant.B[2, 0],
            M_v=-plant.A[1, 2],
            M_q=plant.A[1, 1],
            M_delta=-plant.B[1, 0],
        )
        assert recovered == PITCH_COEFFS_T60


def forcing_at(coeffs, profile, t):
    """(f2, f3) at time t: `pitch_terms` of the simulator's precompute inputs, _stage_grids."""
    grid = _stage_grids(frozen_plant_scenario(coeffs, 1e-3, (t, t + 1e-3), profile), 0, 1)
    f = pitch_terms(*grid)[3]
    return f[0, 1], f[0, 2]


class TestAffineForcing:
    def test_zero_command(self):
        profile = CommandProfile(((0.0, 0.0),))
        assert forcing_at(PITCH_COEFFS_T60, profile, 5.0) == (0.0, 0.0)

    def test_constant_command_exact_decimal_oracle(self):
        # Exact decimal arithmetic over the shipped coefficients:
        #   f2 = -M_q * q_c, f3 = Z_q * q_c + Z_theta * (q_c * t)
        qc = Fraction("0.01")
        f2 = -Fraction("-0.18404") * qc
        f3 = Fraction("608.84") * qc + Fraction("-6.4939") * (qc * 10)
        assert float(f2) == pytest.approx(0.0018404, abs=1e-18)
        assert float(f3) == pytest.approx(5.43901, abs=1e-12)

        profile = CommandProfile(((-1.0, 0.01), (0.0, 0.01)))
        out2, out3 = forcing_at(PITCH_COEFFS_T60, profile, 10.0)
        assert out2 == pytest.approx(float(f2), rel=1e-14)
        assert out3 == pytest.approx(float(f3), rel=1e-12)

    def test_ramp_derivative_only(self):
        coeffs = DynamicCoefficients(
            Z_v=1.0, Z_q=0.0, Z_theta=0.0, Z_delta=1.0, M_v=1.0, M_q=0.0, M_delta=1.0
        )
        alpha = 0.004
        profile = CommandProfile(((0.0, 0.0), (100.0, alpha * 100.0)))
        out2, out3 = forcing_at(coeffs, profile, 50.0)
        assert out2 == pytest.approx(alpha, rel=1e-12)
        assert out3 == 0.0


class TestPitchDerivative:
    """The plant step `simulate` runs: the one-step map from _step_updates."""

    def test_equilibrium(self):
        step_map = production_step_map(frozen_plant_scenario(PITCH_COEFFS_T60, 1e-3))
        assert np.array_equal(propagate(step_map, np.zeros(3)), np.zeros(3))

    def test_matches_matrix_multiply_oracle(self):
        # Frozen plant, held inputs: one RK4 step is x+ = (I + T A) x +
        # T (b u + B_w w) with T = sum_j dt^(j+1) A^j / (j+1)!, j = 0..3.
        dt = 1e-3
        M, N_u, P, _ = production_step_map(frozen_plant_scenario(PITCH_COEFFS_T60, dt))
        plant = assemble_pitch_plant(PITCH_COEFFS_T60)
        T, term = np.zeros((3, 3)), dt * np.eye(3)
        for j in range(4):
            T, term = T + term, term @ plant.A * dt / (j + 2)
        assert np.allclose(M[0], np.eye(3) + T @ plant.A, rtol=1e-13, atol=1e-16)
        assert np.allclose(N_u[0], T @ plant.B[:, 0], rtol=1e-13, atol=1e-18)
        assert np.allclose(P[0], T @ plant.B_w, rtol=1e-13, atol=1e-18)

    def test_disturbance_channel_routing(self):
        # With every coefficient zero only the structural d(int_e)/dt = e
        # remains: w1 drives v_z alone, w2 drives e (and int_e through it).
        dt = 1e-3
        step_map = production_step_map(frozen_plant_scenario(ZERO_COEFFS, dt))
        out = propagate(step_map, np.zeros(3), w=[1.0, 0.0])
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(dt, rel=1e-15)
        out = propagate(step_map, np.zeros(3), w=[0.0, 1.0])
        assert out[0] == pytest.approx(0.5 * dt * dt, rel=1e-15)
        assert out[1] == pytest.approx(dt, rel=1e-15)
        assert out[2] == 0.0

    def test_superposition(self):
        rng = np.random.default_rng(5)
        t = 30.0
        step_map = production_step_map(frozen_plant_scenario(
            PITCH_COEFFS_T100, 2e-4, (t, t + 2e-4), default_command_profile()
        ))
        xa, xb = rng.normal(size=3), rng.normal(size=3)
        ua, ub = rng.normal(), rng.normal()
        wa, wb = rng.normal(size=2), rng.normal(size=2)
        lhs = propagate(step_map, xa + xb, ua + ub, wa + wb) + propagate(step_map, np.zeros(3))
        rhs = propagate(step_map, xa, ua, wa) + propagate(step_map, xb, ub, wb)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestReconstructAttitude:
    """theta = int q_c - int_e and q = q_c - e, as `simulate` records them."""

    @pytest.fixture(scope="class")
    def run(self):
        # Covers the end of the command ramp, with the default disturbances.
        scenario = scenario_paper_ltv(t_span=(58.0, 62.0), dt=1e-3)
        trace, _ = simulate(scenario)
        return scenario.profile, trace

    def test_perfect_tracking(self, run):
        # The run starts at x = 0, where the attitude is the command's.
        profile, trace = run
        assert trace.theta[0] == profile.rate_integral(trace.t[0])
        assert trace.q[0] == profile.rate(trace.t[0])
        assert trace.q[0] != 0.0

    def test_full_rate_error(self, run):
        profile, trace = run
        assert np.abs(trace.x[:, 1]).max() > 0.0
        assert np.array_equal(trace.q, profile.rate(trace.t) - trace.x[:, 1])

    def test_stated_arithmetic(self, run):
        profile, trace = run
        assert np.abs(trace.x[:, 0]).max() > 0.0
        assert np.array_equal(trace.theta, profile.rate_integral(trace.t) - trace.x[:, 0])


class TestCommandProfile:
    def test_integral_matches_dense_quadrature(self):
        profile = default_command_profile()
        ts = np.linspace(0.0, 120.0, 25)
        for t in ts:
            grid = np.linspace(0.0, max(t, 1e-9), 200_001)
            dense = np.trapezoid(np.asarray(profile.rate(grid)), grid) if t > 0 else 0.0
            assert profile.rate_integral(float(t)) == pytest.approx(dense, abs=1e-9)

    def test_integral_of_clamped_head(self):
        # First breakpoint after zero: the constant head integrates exactly.
        profile = CommandProfile(((10.0, 0.5), (20.0, 0.5)))
        assert profile.rate_integral(5.0) == pytest.approx(2.5, abs=1e-12)
        assert profile.rate_integral(20.0) == pytest.approx(10.0, abs=1e-12)
        assert profile.rate_integral(30.0) == pytest.approx(15.0, abs=1e-12)

    @pytest.mark.parametrize("breakpoints", [
        ((10.0, 0.5), (20.0, 0.7), (30.0, -0.1)),  # starts after zero
        ((-7.3, 0.3), (-1.1, 0.9), (4.0, -0.2)),  # spans zero
        ((-30.0, 0.1), (-13.0, 0.7), (-3.0, 0.35)),  # ends before zero
    ])
    def test_integral_is_zero_at_time_zero(self, breakpoints):
        assert CommandProfile(breakpoints).rate_integral(0.0) == 0.0

    def test_one_breakpoint_profile_computes_no_offset(self, recwarn):
        # The integral's offset at time zero is stored for two or more
        # breakpoints only: on one, its formula divides 0 by 0.
        profile = CommandProfile(((5.0, 0.25),))
        assert profile.rate_integral(4.0) == 1.0
        assert profile.rate_integral(np.array([-2.0]))[0] == -0.5
        assert not recwarn.list

    def test_integral_past_a_double_is_refused(self):
        # Its running integral was inf, so a run on it diverged at its first step.
        with pytest.raises(ValueError, match="integral overflows a double"):
            CommandProfile(((-1e200, 0.0), (2.0, math.radians(1e308))))

    def test_derivative_piecewise(self):
        profile = CommandProfile(((0.0, 0.0), (10.0, 1.0), (20.0, 1.0)))
        assert profile.rate_derivative(5.0) == pytest.approx(0.1)
        assert profile.rate_derivative(15.0) == 0.0
        assert profile.rate_derivative(25.0) == 0.0  # clamped tail
        assert profile.rate_derivative(-5.0) == 0.0  # clamped head
        assert profile.rate_derivative(0.0) == pytest.approx(0.1)  # right-continuous

    def test_clamped_rate(self):
        profile = CommandProfile(((10.0, 2.0), (20.0, 4.0)))
        assert profile.rate(0.0) == 2.0
        assert profile.rate(25.0) == 4.0
        assert profile.rate(15.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CommandProfile(())
        with pytest.raises(ValueError):
            CommandProfile(((0.0, 0.0), (0.0, 1.0)))


class TestClosedLoopEquilibrium:
    def test_zero_error_for_frozen_forcing(self):
        # Any stabilizing gain with a nonzero integral entry pins e = 0 at
        # the equilibrium of the frozen-forcing system: solve the 3x3 system.
        design = design_point_t60()
        plant = assemble_pitch_plant(design.coeffs)
        _, gain = synthesize(design)
        assert gain.K[0, 0] != 0.0
        closed = plant.A - plant.B @ gain.K
        for forcing in (
            np.array([0.0, 0.001, 2.0]),
            np.array([0.0, -0.03, 17.0]),
            np.array([0.0, 0.0, -5.0]),
        ):
            x_eq = np.linalg.solve(closed, -forcing)
            assert abs(x_eq[1]) <= 1e-12 * max(1.0, np.linalg.norm(x_eq))


class TestCsvLoaders:
    def test_schedule_round_trip(self, tmp_path):
        path = tmp_path / "schedule.csv"
        rows = [
            (60.0, PITCH_COEFFS_T60),
            (100.0, PITCH_COEFFS_T100),
        ]
        lines = ["t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta"]
        for t, c in rows:
            lines.append(
                f"{t},{c.Z_v},{c.Z_q},{c.Z_theta},{c.Z_delta},{c.M_v},{c.M_q},{c.M_delta}"
            )
        path.write_text("\n".join(lines) + "\n")
        loaded = load_coefficient_schedule(path)
        assert loaded.breakpoints[0][1] == PITCH_COEFFS_T60
        assert loaded.breakpoints[1][1] == PITCH_COEFFS_T100

    def test_profile_deg_to_rad(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,qc_deg_per_s\n0.0,0.0\n10.0,-1.5\n")
        profile = load_command_profile(path)
        assert profile.rate(10.0) == pytest.approx(math.radians(-1.5), rel=1e-15)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n1,0,0,0,0,0,0,0\n")
        with pytest.raises(ValueError, match="expected header"):
            load_coefficient_schedule(path)

    def test_non_increasing_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n2,0,0,0,0,0,0,0\n1,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            load_coefficient_schedule(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times(self, bad):
        # Every ordering comparison with NaN is false, so ordering alone lets it pass.
        with pytest.raises(ValueError, match="finite"):
            CoefficientSchedule(((60.0, ZERO_COEFFS), (bad, ZERO_COEFFS)))
        with pytest.raises(ValueError, match="finite"):
            CommandProfile(((0.0, 0.0), (bad, 1.0)))

    def test_nan_time_cell(self, tmp_path):
        # float() reads a "nan" cell as NaN.
        path = tmp_path / "profile.csv"
        path.write_text("t,qc_deg_per_s\n0.0,0.0\nnan,1.0\n")
        with pytest.raises(ValueError, match="finite"):
            load_command_profile(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qc_deg_per_s\n0.0,zero\n")
        with pytest.raises(ValueError):
            load_command_profile(path)
