"""Riccati solver, norm computation, and level-search tests."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    AXIS,
    grid_norm_oracle,
    random_care_data,
    random_stable_system,
    scalar_care_oracle,
    scalar_gamma_min,
    scalar_gamma_min_brute,
)
from hinf_autopilot import care_solver
from hinf_autopilot.care_solver import (
    BracketInvalid,
    CareProblem,
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
from hinf_autopilot.controller import (
    MEASUREMENT_WEIGHT,
    REFERENCE_X_T60,
    design_point_t60,
    design_point_t100,
    implied_state_weight,
)
from hinf_autopilot.vehicle_model import (
    PITCH_COEFFS_T60,
    assemble_pitch_plant,
    coefficients_at,
    default_schedule,
)


def scalar_problem(a, b, bw, c, gamma):
    return CareProblem(A=[[a]], B=[[b]], B_w=[[bw]], C=[[c]], gamma=gamma)


class TestSolveCare:
    def test_scalar_no_disturbance(self):
        # With B_w = 0 the equation is -2X - X^2 + 1 = 0.
        sol = solve_care(scalar_problem(-1.0, 1.0, 0.0, 1.0, 10.0))
        assert sol.X[0, 0] == pytest.approx(-1.0 + math.sqrt(2.0), abs=1e-12)
        assert sol.K[0, 0] == pytest.approx(sol.X[0, 0], abs=1e-15)

    def test_scalar_agrees_with_quadratic_oracle(self):
        cases = [
            (-1.0, 1.0, 1.0, 1.0, 2.0),
            (-1.0, 1.0, 1.0, 1.0, 0.8),  # g < 0 but still feasible for stable a
            (1.0, 1.0, 1.0, 1.0, 1.5),
            (0.5, 2.0, 1.0, 3.0, 4.0),
            (-2.0, 0.5, 2.0, 1.0, 5.0),
        ]
        for a, b, bw, c, gamma in cases:
            expected = scalar_care_oracle(a, b, bw, c, gamma)
            assert isinstance(expected, float), (a, b, bw, c, gamma)
            sol = solve_care(scalar_problem(a, b, bw, c, gamma))
            assert sol.X[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_scalar_infeasible_level_raises(self):
        # Brute-force oracle: sweep levels, locate the boundary, confirm 0.5
        # sits below it and in the axis-crossing regime.
        boundary = scalar_gamma_min_brute(1.0, 1.0, 1.0, 1.0)
        assert boundary == pytest.approx(scalar_gamma_min(1.0, 1.0, 1.0, 1.0), rel=1e-3)
        assert 0.5 < boundary
        assert scalar_care_oracle(1.0, 1.0, 1.0, 1.0, 0.5) == AXIS
        with pytest.raises(NoStabilizingSolution):
            solve_care(scalar_problem(1.0, 1.0, 1.0, 1.0, 0.5))

    def test_scalar_indefinite_band_raises(self):
        # Between the axis boundary 1/sqrt(2) and the PSD boundary 1, the
        # stabilizing root exists but is negative.
        assert scalar_care_oracle(1.0, 1.0, 1.0, 1.0, 0.8) == "indefinite"
        with pytest.raises(IndefiniteSolution):
            solve_care(scalar_problem(1.0, 1.0, 1.0, 1.0, 0.8))

    def test_design_point_solutions_verify(self):
        # The published X matrices are not reproducible (see README); the
        # solver's own solutions at the published levels must self-verify.
        for design in (design_point_t60(), design_point_t100()):
            plant = assemble_pitch_plant(design.coeffs)
            problem = CareProblem(
                A=plant.A, B=plant.B, B_w=plant.B_w, C=design.C_perf, gamma=design.gamma
            )
            sol = solve_care(problem)
            x_norm = np.linalg.norm(sol.X, "fro")
            scale = max(
                1.0,
                np.linalg.norm(design.C_perf.T @ design.C_perf, "fro"),
                x_norm**2 * np.linalg.norm(plant.B @ plant.B.T, "fro"),
            )
            assert care_residual(problem, sol.X) <= 1e-8 * scale
            assert np.linalg.norm(sol.X - sol.X.T, "fro") <= 1e-10 * max(1.0, x_norm)
            assert np.linalg.eigvalsh(sol.X)[0] >= -1e-8 * max(1.0, x_norm)
            assert sol.worst_case_eigs.real.max() < 0.0

    def test_matches_scipy_on_lqr_form(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A, B, B_w, C = random_care_data(rng)
            ours = solve_lqr(A, B, C).X
            theirs = scipy.linalg.solve_continuous_are(
                A, B, C.T @ C, np.eye(B.shape[1])
            )
            assert np.allclose(ours, theirs, rtol=1e-8, atol=1e-10)

    def test_deterministic(self):
        problem = scalar_problem(1.0, 1.0, 1.0, 1.0, 1.5)
        a = solve_care(problem).X
        b = solve_care(problem).X
        assert np.array_equal(a, b)

    def test_pbh_warning_on_undetectable_problem(self):
        # Unstable mode invisible to C: PBH must flag it.
        sol = solve_care(
            CareProblem(A=[[1.0]], B=[[1.0]], B_w=[[0.5]], C=[[0.0]], gamma=10.0)
        )
        assert any("detectable" in w for w in sol.warnings)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            scalar_problem(1.0, 1.0, 1.0, 1.0, -2.0)

    def test_dimension_validation(self):
        with pytest.raises(ShapeError):
            CareProblem(A=np.eye(2), B=np.ones((3, 1)), B_w=np.ones((2, 1)),
                        C=np.ones((1, 2)), gamma=1.0)

    @pytest.mark.parametrize("entry", [
        [[1j]], 10**400, [[1.0], [1.0, 2.0]], "x", [["1"]], [[True]], [[0, True, 0]],
    ])
    def test_entry_that_is_not_a_number_is_a_value_error(self, entry):
        # 1j was a TypeError and 10**400 an OverflowError, both from numpy;
        # numpy would convert "1" and True to floats.
        with pytest.raises(ValueError, match="B must be a matrix of numbers"):
            CareProblem(A=[[-1.0]], B=entry, B_w=[[1.0]], C=[[1.0]], gamma=2.0)
        with pytest.raises(ValueError, match="B_in must be a matrix of numbers"):
            StateSpace(A=[[-1.0]], B_in=entry, C_out=[[1.0]], D_ff=[[0.0]])

    @pytest.mark.parametrize("entry", [[[1]], np.array([[1.0]]), np.array([[1]], dtype=np.int64)])
    def test_int_and_numpy_float_entries_are_accepted(self, entry):
        problem = CareProblem(A=[[-1]], B=entry, B_w=[[1.0]], C=[[1.0]], gamma=2.0)
        system = StateSpace(A=[[-1]], B_in=entry, C_out=[[1.0]], D_ff=[[0]])
        assert problem.B.dtype == system.B_in.dtype == float
        assert problem.B.tolist() == system.B_in.tolist() == [[1.0]]

    @pytest.mark.parametrize("name, entry", [("B B'", "B"), ("B_w B_w'", "B_w"), ("C'C", "C")])
    def test_gram_matrix_that_overflows_is_refused(self, name, entry):
        # Finite entries whose products overflow: the equation's terms would be inf.
        data = {"A": [[-1.0]], "B": [[1.0]], "B_w": [[1.0]], "C": [[1.0]], "gamma": 2.0,
                entry: [[1e200]]}
        with pytest.raises(ValueError, match=re.escape(f"{name} has non-finite entries")):
            CareProblem(**data)

    def test_pitch_plant_whose_b_bt_overflows_is_refused(self):
        # Was a LinAlgError ("Array must not contain infs or NaNs") from the eigensolver.
        plant = assemble_pitch_plant(dataclasses.replace(PITCH_COEFFS_T60, M_delta=-1e200))
        with pytest.raises(ValueError, match="B B' has non-finite entries"):
            solve_care(CareProblem(A=plant.A, B=plant.B, B_w=plant.B_w, C=MEASUREMENT_WEIGHT,
                                   gamma=20.0))
        with pytest.raises(ValueError, match="B B' has non-finite entries"):
            gamma_search(plant.A, plant.B, plant.B_w, MEASUREMENT_WEIGHT, (1e-3, 1e6))

    def test_hamiltonian_whose_norm_overflows_is_decided_on_its_spectrum(self):
        # Finite entries whose Frobenius norm overflows: ||H||_F read inf, so
        # every eigenvalue passed the relative axis test unlooked at.  The
        # eigenvalues here are about -+1e160, far from the axis; the scaled
        # norm lets the level go on to its residual check, which refuses it.
        problem = CareProblem(A=np.diag([-1e160, -2e160]), B=np.eye(2), B_w=np.zeros((2, 1)),
                              C=np.eye(2), gamma=math.inf)
        with pytest.raises(NoStabilizingSolution) as excinfo:
            solve_care(problem)
        assert "imaginary axis" not in str(excinfo.value)
        assert "residual" in str(excinfo.value)


class TestCareResidual:
    def test_exact_scalar_solution(self):
        problem = scalar_problem(-1.0, 1.0, 0.0, 1.0, 10.0)
        sol = solve_care(problem)
        assert care_residual(problem, sol.X) <= 1e-12

    def test_zero_matrix(self):
        problem = CareProblem(
            A=np.eye(3), B=np.ones((3, 1)), B_w=np.ones((3, 2)),
            C=np.array([[1.0, 2.0, 3.0]]), gamma=2.0,
        )
        expected = np.linalg.norm(problem.C.T @ problem.C, "fro")
        assert care_residual(problem, np.zeros((3, 3))) == pytest.approx(expected)

    def test_published_solution_under_implied_weighting(self):
        # The printed 60 s solution satisfies the equation to well under the
        # print-rounding tolerance once the weighting implied by it is used.
        design = design_point_t60()
        plant = assemble_pitch_plant(design.coeffs)
        C, _ = implied_state_weight(
            plant.A, plant.B, plant.B_w, design.gamma, REFERENCE_X_T60
        )
        problem = CareProblem(
            A=plant.A, B=plant.B, B_w=plant.B_w, C=C, gamma=design.gamma
        )
        assert care_residual(problem, REFERENCE_X_T60) <= 5e-2

    def test_shape_error(self):
        problem = scalar_problem(-1.0, 1.0, 0.0, 1.0, 10.0)
        with pytest.raises(ShapeError):
            care_residual(problem, np.zeros((2, 2)))


class TestHinfNorm:
    def test_first_order_servo(self):
        sys = StateSpace(A=[[-10.0]], B_in=[[10.0]], C_out=[[1.0]], D_ff=[[0.0]])
        assert hinf_norm(sys, tol=1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_gyro_resonant_peak(self):
        wn = 80.0 * math.pi
        sys = StateSpace(
            A=[[0.0, 1.0], [-wn**2, -40.0 * math.pi]],
            B_in=[[0.0], [wn**2]],
            C_out=[[1.0, 0.0]],
            D_ff=[[0.0]],
        )
        zeta = 0.25
        analytic = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2))
        value = hinf_norm(sys, tol=1e-8)
        assert value == pytest.approx(analytic, abs=1e-3)
        # Dense-grid cross-check.
        assert value == pytest.approx(
            grid_norm_oracle(sys.A, sys.B_in, sys.C_out, sys.D_ff, 50_000), rel=1e-5
        )

    def test_static_feedthrough(self):
        sys = StateSpace(A=[[-1.0]], B_in=[[0.0]], C_out=[[0.0]], D_ff=[[3.0]])
        assert hinf_norm(sys, tol=1e-9) == pytest.approx(3.0, abs=1e-6)

    def test_unstable_system_rejected(self):
        sys = StateSpace(A=[[1.0]], B_in=[[1.0]], C_out=[[1.0]], D_ff=[[0.0]])
        with pytest.raises(UnstableSystem):
            hinf_norm(sys)

    @pytest.mark.parametrize("B, D, norm", [
        ([[1.0], [1.0]], [[0.0]], 5e307),
        ([[1.0, 0.0], [1.0, 1.0]], [[0.0, 0.0]], 5e307 * math.sqrt(2.0)),
    ])
    def test_level_whose_square_overflows(self, B, D, norm):
        # The DC gain is near 1e308: the tested level's square is inf, so
        # (gamma^2 I - D'D)^-1 is 0, with no nan off its diagonal.
        sys = StateSpace(A=[[-1.0, 1e308], [0.0, -2.0]], B_in=B, C_out=[[1.0, 1.0]], D_ff=D)
        assert hinf_norm(sys) == pytest.approx(norm, rel=1e-12)

    def test_gain_past_a_double_is_refused(self):
        # The DC gain is about 5e319: G(0) overflows, where the SVD of an
        # inf/nan G ended in LinAlgError.
        sys = StateSpace(A=[[-1e-160, 1e160], [0.0, -2.0]], B_in=[[1.0], [1.0]],
                         C_out=[[-0.5, -0.5]], D_ff=[[1.0]])
        with pytest.raises(NonFiniteGain, match=r"w = 0\.0 rad/s"):
            hinf_norm(sys)

    def test_zero_transfer_function(self):
        sys = StateSpace(A=[[-1.0]], B_in=[[0.0]], C_out=[[0.0]], D_ff=[[0.0]])
        assert hinf_norm(sys, tol=1e-6) <= 1e-12

    def test_agrees_with_grid_oracle_on_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A, B, C, D = random_stable_system(rng)
            value = hinf_norm(StateSpace(A=A, B_in=B, C_out=C, D_ff=D), tol=1e-8)
            reference = grid_norm_oracle(A, B, C, D, 50_000)
            assert value == pytest.approx(reference, rel=1e-4)

    @pytest.mark.parametrize("wn, zeta, tol", [
        *((80.0 * math.pi, zeta, tol)
          for zeta in (0.25, 5e-3, 1e-3, 1e-4, 1e-5, 1e-6) for tol in (1e-6, 1e-8)),
        (1.0, 1e-4, 1e-8),
    ])
    def test_lightly_damped_second_order(self, wn, zeta, tol):
        # wn^2 / (s^2 + 2 zeta wn s + wn^2) peaks at 1 / (2 zeta sqrt(1 - zeta^2)).
        sys = StateSpace(
            A=[[0.0, 1.0], [-wn**2, -2.0 * zeta * wn]],
            B_in=[[0.0], [wn**2]],
            C_out=[[1.0, 0.0]],
            D_ff=[[0.0]],
        )
        analytic = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2))
        value = hinf_norm(sys, tol=tol)
        assert abs(value - analytic) <= tol * analytic
        assert value <= analytic * (1.0 + 1e-12)

    def test_hamiltonian_is_the_block_matrix(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 6):
            M, S, L = (rng.standard_normal((n, n)) for _ in range(3))
            H = care_solver._hamiltonian(M, S, L)
            assert H.tobytes() == np.block([[M, S], [L, -M.T]]).tobytes()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_tol_must_be_finite_and_positive(self, tol):
        sys = StateSpace(A=[[-10.0]], B_in=[[10.0]], C_out=[[1.0]], D_ff=[[0.0]])
        with pytest.raises(ValueError, match="tol"):
            hinf_norm(sys, tol=tol)

    def test_pass_cap_raises(self, monkeypatch):
        # The gyro-like peak needs three level passes; with one it must raise
        # rather than return an unconverged bound.
        monkeypatch.setattr(care_solver, "_MAX_LEVEL_PASSES", 1)
        wn = 80.0 * math.pi
        sys = StateSpace(A=[[0.0, 1.0], [-wn**2, -0.5 * wn]], B_in=[[0.0], [wn**2]],
                         C_out=[[1.0, 0.0]], D_ff=[[0.0]])
        with pytest.raises(RuntimeError, match="did not converge"):
            hinf_norm(sys, tol=1e-8)


def reference(A, B, B_w, C, lo, hi, tol):
    """The plain bisection, deciding every level it visits with solve_care."""
    history = []

    def feasible(gamma):
        try:
            solve_care(CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=gamma))
        except (NoStabilizingSolution, IndefiniteSolution):
            history.append((gamma, False))
            return False
        history.append((gamma, True))
        return True

    assert feasible(hi)
    if feasible(lo):
        return lo, history
    while (hi - lo) > tol * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi, history


def count_solves(monkeypatch) -> list:
    """Count the levels gamma_search decides, through a _verified_root spy."""
    solved = []
    verified_root = care_solver._verified_root

    def spy(A, G, *args):
        solved.append(G)
        return verified_root(A, G, *args)

    monkeypatch.setattr(care_solver, "_verified_root", spy)
    return solved


class TestGammaSearch:
    def test_scalar_boundary_matches_oracle(self):
        found = gamma_search(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], bracket=(1e-2, 1e3), tol=1e-8
        )
        assert found == pytest.approx(scalar_gamma_min(1.0, 1.0, 1.0, 1.0), rel=1e-6)
        # Contract: feasible just above, infeasible just below.
        solve_care(scalar_problem(1.0, 1.0, 1.0, 1.0, found * (1 + 1e-6)))
        with pytest.raises((NoStabilizingSolution, IndefiniteSolution)):
            solve_care(scalar_problem(1.0, 1.0, 1.0, 1.0, found * (1 - 1e-6)))

    def test_scalar_stable_plant_boundary(self):
        found = gamma_search(
            [[-1.0]], [[1.0]], [[1.0]], [[1.0]], bracket=(1e-3, 1e3), tol=1e-8
        )
        assert found == pytest.approx(scalar_gamma_min(-1.0, 1.0, 1.0, 1.0), rel=1e-6)

    def test_published_level_is_above_minimum(self):
        design = design_point_t100()
        plant = assemble_pitch_plant(design.coeffs)
        gamma_min = gamma_search(
            plant.A, plant.B, plant.B_w, design.C_perf, bracket=(1e-3, 1e6), tol=1e-6
        )
        assert gamma_min <= 7.8

    def test_no_disturbance_returns_lower_end(self):
        # Without B_w the level never binds, so the search hits the bracket floor.
        found = gamma_search(
            [[-1.0]], [[1.0]], [[0.0]], [[1.0]], bracket=(1e-3, 10.0), tol=1e-6
        )
        assert found == 1e-3

    def test_infeasible_upper_end_rejected(self):
        with pytest.raises(BracketInvalid):
            gamma_search([[1.0]], [[1.0]], [[1.0]], [[1.0]], bracket=(0.1, 0.5))

    @pytest.mark.parametrize("t_design", [60.0, 73.5, 86.0, 100.0])
    def test_decides_like_solve_care(self, t_design):
        # The search's probes skip solve_care's PBH probes, gain and loop
        # poles; the levels, their verdicts and the result must still be
        # those of a bisection that asks solve_care, bit for bit.
        rng = np.random.default_rng(3)
        weights = [MEASUREMENT_WEIGHT, np.eye(3)]
        weights += [np.diag(10 ** rng.uniform(-2, 2, 3)) for _ in range(12)]
        plant = assemble_pitch_plant(coefficients_at(default_schedule(), t_design))
        for C in weights:
            history = []
            found = gamma_search(
                plant.A, plant.B, plant.B_w, C, (1e-3, 1e6), tol=1e-6, history=history
            )
            expected = reference(plant.A, plant.B, plant.B_w, C, 1e-3, 1e6, 1e-6)
            assert (found, history) == expected

    # Scalar plant a = b = bw = c = 1, whose boundary is gamma = 1.  Each
    # bracket ends the first run of feasible levels at a different edge;
    # `verdicts` is the history's pattern of verdicts after the two ends.
    @pytest.mark.parametrize("bracket, tol, verdicts", [
        ((0.5, 1.2), 1e-8, "first level infeasible"),
        ((0.6, 2.0), 1e-8, "second level infeasible"),
        ((0.999, 10.0), 1e-2, "every level feasible"),
        ((0.99, 1.01), 0.05, "no level"),
        ((2.0, 10.0), 1e-8, "lower end feasible"),
    ])
    def test_first_run_edges_match_the_plain_bisection(self, bracket, tol, verdicts):
        history = []
        found = gamma_search(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], bracket, tol=tol, history=history
        )
        assert (found, history) == reference(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], *bracket, tol
        )
        ends, levels = [ok for _, ok in history[:2]], [ok for _, ok in history[2:]]
        if verdicts == "lower end feasible":
            assert ends == [True, True] and levels == []
            return
        assert ends == [True, False]
        if verdicts == "first level infeasible":
            assert levels[0] is False
        elif verdicts == "second level infeasible":
            assert levels[:2] == [True, False]
        elif verdicts == "every level feasible":
            assert len(levels) > 1 and all(levels)
            assert found == history[-1][0]
        else:
            assert levels == [] and found == bracket[1]

    @pytest.mark.parametrize("design", [design_point_t60, design_point_t100])
    def test_first_run_is_found_by_binary_search(self, design, monkeypatch):
        # The plain bisection solves all 43 levels of the shipped searches;
        # the binary search over the first run's index solves 26 or fewer,
        # and the history still holds every one of the 43.
        point = design()
        plant = assemble_pitch_plant(point.coeffs)
        solved = count_solves(monkeypatch)
        history = []
        gamma_search(
            plant.A, plant.B, plant.B_w, point.C_perf, (1e-3, 1e6), tol=1e-6,
            history=history,
        )
        assert len(solved) <= 26
        assert len(history) == 43

    def test_tol_below_the_float_spacing_stops_at_adjacent_floats(self):
        # No float lies strictly between the last two levels, so the
        # bisection stops there instead of repeating a level forever.
        history = []
        found = gamma_search(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], (1e-2, 1e3), tol=1e-17, history=history
        )
        levels = [gamma for gamma, _ in history]
        assert len(set(levels)) == len(levels)
        lo = max(gamma for gamma, ok in history if not ok)
        assert np.nextafter(lo, math.inf) == found

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol") as raised:
            gamma_search([[1.0]], [[1.0]], [[1.0]], [[1.0]], (1e-2, 1e3), tol=tol)
        assert not isinstance(raised.value, BracketInvalid)

    def test_probes_do_not_run_the_pbh_probes(self, monkeypatch):
        def pbh_raises(*args):
            raise AssertionError("gamma_search ran the PBH probes")

        monkeypatch.setattr(care_solver, "_pbh_warnings", pbh_raises)
        found = gamma_search(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], bracket=(1e-2, 1e3), tol=1e-8
        )
        assert found == pytest.approx(scalar_gamma_min(1.0, 1.0, 1.0, 1.0), rel=1e-6)


class TestSolveLqr:
    def test_scalar_stable(self):
        sol = solve_lqr([[-1.0]], [[1.0]], [[1.0]])
        assert sol.X[0, 0] == pytest.approx(-1.0 + math.sqrt(2.0), abs=1e-12)
        assert sol.gamma == math.inf

    def test_scalar_integrator(self):
        sol = solve_lqr([[0.0]], [[1.0]], [[1.0]])
        assert sol.X[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_is_solve_care_at_infinite_gamma(self):
        # The disturbance-free limit is the H-infinity equation at gamma = inf
        # with a zero disturbance input, bit for bit.
        rng = np.random.default_rng(8)
        for _ in range(20):
            A, B, _, C = random_care_data(rng)
            lqr = solve_lqr(A, B, C)
            hinf = solve_care(CareProblem(A=A, B=B, B_w=np.zeros_like(B), C=C, gamma=math.inf))
            assert np.array_equal(lqr.X, hinf.X) and np.array_equal(lqr.K, hinf.K)
            assert lqr.gamma == hinf.gamma == math.inf
        with pytest.raises(ShapeError):
            solve_lqr(np.eye(2), np.ones((3, 1)), np.eye(2))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    def test_nonpositive_gamma_rejected(self, gamma):
        with pytest.raises(ValueError):
            CareProblem(A=[[-1.0]], B=[[1.0]], B_w=[[1.0]], C=[[1.0]], gamma=gamma)

    def test_infinite_upper_bracket_end_rejected(self):
        with pytest.raises(BracketInvalid):
            gamma_search([[-1.0]], [[1.0]], [[1.0]], [[1.0]], bracket=(0.1, math.inf))

    @pytest.mark.parametrize("design", [design_point_t60, design_point_t100])
    def test_gamma_whose_square_overflows_is_the_lqr_limit(self, design):
        # 1e160 squared overflows a double, so gamma^-2 is 0: the G of gamma = inf.
        plant = assemble_pitch_plant(design().coeffs)
        huge, inf = (
            solve_care(CareProblem(A=plant.A, B=plant.B, B_w=plant.B_w,
                                   C=MEASUREMENT_WEIGHT, gamma=gamma))
            for gamma in (1e160, math.inf)
        )
        assert np.array_equal(huge.X, inf.X) and np.array_equal(huge.K, inf.K)
        assert huge.gamma == 1e160

    def test_large_gamma_limit(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A, B, B_w, C = random_care_data(rng)
            lqr = solve_lqr(A, B, C)
            hinf = solve_care(CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=1e6))
            floor = 1e-9 * max(1.0, float(np.abs(lqr.X).max()))
            assert np.all(
                np.abs(hinf.X - lqr.X) <= 1e-6 * np.maximum(np.abs(lqr.X), floor)
            )


class TestSolutionProperties:
    def test_random_systems_verify_and_attenuate(self):
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(20):
            A, B, B_w, C = random_care_data(rng)
            gamma_min = gamma_search(A, B, B_w, C, bracket=(1e-6, 1e6), tol=1e-3)
            gamma = 1.5 * gamma_min
            sol = solve_care(CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=gamma))
            solved += 1
            closed = StateSpace(
                A=A - B @ sol.K,
                B_in=B_w,
                C_out=np.vstack([C, -sol.K]),
                D_ff=np.zeros((C.shape[0] + B.shape[1], B_w.shape[1])),
            )
            assert hinf_norm(closed, tol=1e-6) < gamma
        assert solved == 20

    def test_scalar_monotonicity(self):
        # Tightening the level can only grow the solution.
        levels = [1.2, 1.5, 2.0, 5.0, 50.0]
        values = [
            solve_care(scalar_problem(1.0, 1.0, 1.0, 1.0, g)).X[0, 0] for g in levels
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_random_monotonicity_flagged_not_asserted(self, capsys):
        rng = np.random.default_rng(23)
        flagged = 0
        for _ in range(10):
            A, B, B_w, C = random_care_data(rng)
            gamma_min = gamma_search(A, B, B_w, C, bracket=(1e-6, 1e6), tol=1e-3)
            x1 = solve_care(
                CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=1.5 * gamma_min)
            ).X
            x2 = solve_care(
                CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=3.0 * gamma_min)
            ).X
            if np.linalg.norm(x1, "fro") < np.linalg.norm(x2, "fro") - 1e-9:
                flagged += 1
        if flagged:
            print(f"monotonicity flagged on {flagged}/10 random systems")
