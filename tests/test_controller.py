"""Gain extraction, control law, synthesis, and weighting calibration."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import exact_product, quiet_scenario
import hinf_autopilot.controller as controller_module
from hinf_autopilot import simulator
from hinf_autopilot.care_solver import (
    CareProblem,
    HinfSolution,
    NoStabilizingSolution,
    ShapeError,
    care_residual,
)
from hinf_autopilot.controller import (
    MEASUREMENT_WEIGHT,
    REFERENCE_GAIN_T60,
    REFERENCE_X_T60,
    REFERENCE_X_T100,
    CalibrationResult,
    ClosedLoopUnstable,
    ControllerGain,
    calibrate_state_weight,
    design_point_t60,
    design_point_t100,
    gain_from_solution,
    implied_state_weight,
    synthesize,
)
from hinf_autopilot.simulator import (
    DisturbanceSpec, Sine, scenario_paper_lti, scenario_paper_ltv, simulate,
)
from hinf_autopilot.vehicle_model import assemble_pitch_plant


X_T60_STR = (
    ("25.4427", "0.7938", "0.0405"),
    ("0.7938", "0.809", "0.0013"),
    ("0.0405", "0.0013", "0.0001"),
)
X_T100_STR = (
    ("63.3031", "0.6819", "0.034"),
    ("0.6819", "1.8298", "-0.0002"),
    ("0.034", "-0.0002", "0.0000"),
)


class TestGainFromSolution:
    def test_t60_reproduces_published_gain(self):
        plant = assemble_pitch_plant(design_point_t60().coeffs)
        gain = gain_from_solution(plant.B, REFERENCE_X_T60)
        oracle = exact_product(("0", "1.9594", "-3.4855"), X_T60_STR)
        assert np.allclose(gain.K[0], oracle, rtol=0, atol=1e-12)
        assert np.all(np.abs(gain.K[0] - REFERENCE_GAIN_T60) <= 5e-4)

    def test_t100_matches_product_oracle(self):
        plant = assemble_pitch_plant(design_point_t100().coeffs)
        gain = gain_from_solution(plant.B, REFERENCE_X_T100)
        oracle = exact_product(("0", "2.1086", "-6.2007"), X_T100_STR)
        assert np.allclose(gain.K[0], oracle, rtol=0, atol=1e-12)
        assert np.all(np.abs(gain.K[0] - np.array([1.2270, 3.8597, -0.0004])) <= 5e-4)

    def test_zero_input_map(self):
        gain = gain_from_solution(np.zeros((3, 1)), REFERENCE_X_T60)
        assert np.array_equal(gain.K, np.zeros((1, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gain_from_solution(np.zeros((2, 1)), REFERENCE_X_T60)


def law_from_trace(trace, K, e_channel):
    """-(K0 int_e + K1 e_ch + K2 v_z) per sample, in the loop's order."""
    k0, k1, k2 = (float(v) for v in K[0])
    return -(k0 * trace.x[:, 0] + k1 * e_channel + k2 * trace.x[:, 2])


class TestControlLaw:
    """The control law `simulate` applies: u = -K x_fb on every sample."""

    def test_zero_state(self):
        trace, _ = simulate(quiet_scenario(t_span=(60.0, 61.0)))
        assert np.array_equal(trace.u, np.zeros_like(trace.u))

    def test_published_gain_on_rate_error(self, monkeypatch):
        published = ControllerGain(K=REFERENCE_GAIN_T60)
        assert float(-(published.K @ [0.0, 0.01, 0.0])[0]) == pytest.approx(
            -0.015804, abs=1e-12
        )
        monkeypatch.setattr(simulator, "synthesize", lambda design: (None, published))
        trace, _ = simulate(scenario_paper_lti(t_span=(60.0, 62.0), feedback_source="true_state"))
        assert np.array_equal(trace.u, law_from_trace(trace, published.K, trace.x[:, 1]))

    def test_gyro_feedback_uses_measured_rate(self):
        # With gyro feedback the e channel is q_c - q_meas, not the true e.
        scenario = scenario_paper_ltv(t_span=(60.0, 62.0))
        trace, _ = simulate(scenario)
        e_measured = scenario.profile.rate(trace.t) - trace.q_meas
        assert not np.array_equal(e_measured, trace.x[:, 1])
        K = synthesize(scenario.design)[1].K
        assert np.array_equal(trace.u, law_from_trace(trace, K, e_measured))

    def test_linearity(self):
        # With a pass-through servo and no command the loop is linear in the
        # disturbance, and so is the deflection command it produces.
        def command_history(w1, w2):
            spec = DisturbanceSpec(channel1=(Sine(w1, 2.0),), channel2=(Sine(w2, 0.5, 1.0),))
            return simulate(quiet_scenario(
                disturbances=spec, t_span=(60.0, 61.0), servo_tau=1e-3, servo_rate_limit=1e9,
                feedback_source="gyro_rate",
            ))[0].u

        wa, wb = np.random.default_rng(9).normal(size=(2, 2))
        lhs = command_history(*(2.5 * wa - 1.25 * wb))
        rhs = 2.5 * command_history(*wa) - 1.25 * command_history(*wb)
        assert np.abs(lhs).max() > 0.0
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * np.abs(lhs).max())


class TestSynthesize:
    @pytest.mark.parametrize("factory", [design_point_t60, design_point_t100])
    def test_design_points_produce_stable_loops(self, factory):
        design = factory()
        solution, gain = synthesize(design)
        plant = assemble_pitch_plant(design.coeffs)
        closed = plant.A - plant.B @ gain.K
        assert np.linalg.eigvals(closed).real.max() < 0.0
        assert np.allclose(gain.K, plant.B.T @ solution.X, atol=0)

    def test_far_too_small_level_raises(self):
        with pytest.raises(NoStabilizingSolution):
            synthesize(design_point_t60(gamma=1e-6))
        with pytest.raises(NoStabilizingSolution):
            synthesize(design_point_t100(gamma=1e-6))

    def test_unstable_closed_loop_guard(self, monkeypatch):
        # Force a solution whose gain leaves the plant's unstable mode alone.
        design = design_point_t60()

        def fake_solve(problem):
            return HinfSolution(
                gamma=design.gamma,
                X=np.zeros((3, 3)),
                K=np.zeros((1, 3)),
                closed_loop_eigs=np.zeros(3),
                worst_case_eigs=-np.ones(3),
                residual=0.0,
            )

        monkeypatch.setattr(controller_module, "solve_care", fake_solve)
        with pytest.raises(ClosedLoopUnstable):
            synthesize(design)


class TestWeightCalibration:
    def test_implied_weight_hits_rounding_floor(self):
        # The PSD projection leaves only the clipped negative part; both
        # published matrices land far under the 5e-2 print tolerance.
        for design, x_ref in (
            (design_point_t60(), REFERENCE_X_T60),
            (design_point_t100(), REFERENCE_X_T100),
        ):
            plant = assemble_pitch_plant(design.coeffs)
            C, residual = implied_state_weight(
                plant.A, plant.B, plant.B_w, design.gamma, x_ref
            )
            assert residual <= 5e-2
            assert C.shape[1] == 3
            gram = C.T @ C
            assert np.linalg.eigvalsh(gram)[0] >= -1e-12

    @pytest.mark.parametrize("design, x_ref", [
        (design_point_t60, REFERENCE_X_T60), (design_point_t100, REFERENCE_X_T100),
    ])
    def test_implied_residual_is_care_residual(self, design, x_ref):
        # Both form G and the equation's left side by the same functions.
        design = design()
        plant = assemble_pitch_plant(design.coeffs)
        C, residual = implied_state_weight(plant.A, plant.B, plant.B_w, design.gamma, x_ref)
        problem = CareProblem(A=plant.A, B=plant.B, B_w=plant.B_w, C=C, gamma=design.gamma)
        assert residual == care_residual(problem, x_ref)

    def test_candidate_search_fails_the_tolerance(self):
        # No candidate family explains the published solutions: the implied
        # weighting has a large off-diagonal no diagonal candidate can reach.
        for design, x_ref in (
            (design_point_t60(), REFERENCE_X_T60),
            (design_point_t100(), REFERENCE_X_T100),
        ):
            plant = assemble_pitch_plant(design.coeffs)
            results = calibrate_state_weight(
                plant.A, plant.B, plant.B_w, design.gamma, x_ref
            )
            assert results == sorted(results, key=lambda r: r.residual)
            labels = [r.label for r in results]
            assert "identity" in labels
            assert any("measurement" in label for label in labels)
            assert results[0].residual > 5e-2

    def test_result_type(self):
        plant = assemble_pitch_plant(design_point_t60().coeffs)
        results = calibrate_state_weight(
            plant.A, plant.B, plant.B_w, 20.0, REFERENCE_X_T60, diag_grid=(1.0,)
        )
        assert all(isinstance(r, CalibrationResult) for r in results)
        assert len(results) == 3  # measurement, identity, diag(1,1,1)


class TestDesignPoint:
    def test_default_weight_is_measurement_row(self):
        assert np.array_equal(design_point_t60().C_perf, MEASUREMENT_WEIGHT)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            design_point_t60(gamma=-1.0)
        with pytest.raises(ValueError):  # NaN <= 0 is false: the check is `not gamma > 0`
            design_point_t60(gamma=float("nan"))
        # gamma-search's design point carries gamma = inf.
        assert design_point_t60(gamma=float("inf")).gamma == float("inf")

    def test_design_point_owns_its_weighting(self):
        # Writing into one design point's weighting leaves the default and
        # every other design point as they were.
        expected_K = synthesize(design_point_t100())[1].K
        changed = design_point_t60()
        try:
            changed.C_perf[0, 1] = 2.0
            assert np.array_equal(MEASUREMENT_WEIGHT, [[0.0, 1.0, 0.0]])
            assert np.array_equal(design_point_t100().C_perf, [[0.0, 1.0, 0.0]])
            assert np.array_equal(synthesize(design_point_t100())[1].K, expected_K)
        finally:
            changed.C_perf[0, 1] = 1.0  # in case it is shared
        weight = np.array([[0.0, 1.0, 0.0]])
        given = design_point_t60(C_perf=weight)
        weight[0, 0] = 5.0
        assert np.array_equal(given.C_perf, [[0.0, 1.0, 0.0]])

    def test_weight_shape_validation(self):
        with pytest.raises(ShapeError):
            design_point_t60(C_perf=np.eye(2))
