"""Continuous algebraic Riccati machinery for H-infinity state feedback.

This module solves the attenuation-level-parameterized Riccati equation

    X A + A' X - X (B B' - gamma^-2 Bw Bw') X + C' C = 0

for its stabilizing, positive-semidefinite root, extracts state-feedback
gains K = B' X, computes H-infinity norms of stable state-space systems by
a level-set iteration (an evaluated gain within the requested tolerance of
the norm, or an error), and bisects the attenuation level down to the
feasibility boundary.  One function forms G = BB' - gamma^-2 BwBw'; the
bisection decides each level on it by solve_care's checks (stable subspace,
PSD root, stable A - G X, residual bound), skipping the PBH probes, gain
and loop poles, which do not depend on gamma or do not decide feasibility.
The bisection's first run of feasible levels is known in advance (hi
halves toward lo), so their verdicts come from a binary search over the
bracket ends and the run's levels rather than one solve per level.

The solver works on dense 64-bit arrays and extracts the stable invariant
subspace of the 2n x 2n Hamiltonian by eigendecomposition.  That is entirely
adequate for the small (n <= 6) problems this package targets; no structure
is exploited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StateSpace",
    "CareProblem",
    "HinfSolution",
    "ShapeError",
    "NoStabilizingSolution",
    "IndefiniteSolution",
    "UnstableSystem",
    "BracketInvalid",
    "NonFiniteGain",
    "solve_care",
    "solve_lqr",
    "care_residual",
    "hinf_norm",
    "gamma_search",
]

# Relative condition-number ceiling for inverting the upper block of the
# stable-subspace basis; beyond this the solution has blown up (gamma is at
# or below the achievable attenuation level).
_MAX_BASIS_COND = 1e12

# Hamiltonian eigenvalues closer to the imaginary axis than this (relative
# to ||H||_F) are treated as axis eigenvalues: no clean stable subspace.
_AXIS_TOL = 1e-9

# Level-set passes before hinf_norm raises; 1000 random systems with damping
# down to 1e-9 needed at most 33.
_MAX_LEVEL_PASSES = 100


class ShapeError(ValueError):
    """Matrix dimensions are mutually inconsistent."""


class NoStabilizingSolution(RuntimeError):
    """The Riccati equation has no stabilizing solution at this level.

    Raised when the Hamiltonian has eigenvalues on (or numerically at) the
    imaginary axis, when the stable subspace is not n-dimensional, or when
    the subspace basis cannot be inverted reliably.  For the H-infinity
    equation this signals an attenuation level at or below the achievable
    minimum.
    """


class IndefiniteSolution(RuntimeError):
    """The stabilizing root exists but is not positive semidefinite.

    Signals an invalid problem (e.g. detectability violated) or an
    attenuation level inside the infeasible band where the stabilizing
    root loses semidefiniteness.
    """


class UnstableSystem(ValueError):
    """Operation requires a Hurwitz state matrix."""


class BracketInvalid(ValueError):
    """The bisection bracket does not enclose the feasibility boundary."""


class NonFiniteGain(ValueError):
    """A frequency response of the system is past the range of a double."""


def _as_matrix(value, name: str) -> np.ndarray:
    """`value` as a float copy, at least 2-D: ValueError unless a finite numeric matrix.

    A string or boolean entry is refused, though numpy would convert it.
    """
    try:
        for entry in np.array(value, dtype=object).flat:
            if isinstance(entry, (str, bytes, bool, np.bool_)):
                raise TypeError(f"{entry!r} is not a number")
        mat = np.array(value, dtype=float, ndmin=2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a matrix of numbers: {exc}") from None
    if mat.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def _check_grams(*grams) -> None:
    """Refuse data whose Gram matrices overflow; each is a (name, M, M') to multiply."""
    with np.errstate(over="ignore"):
        for name, left, right in grams:
            if not np.isfinite(left @ right).all():
                raise ValueError(f"{name} has non-finite entries; the equation cannot be formed")


@dataclass
class StateSpace:
    """A real state-space system (A, B, C, D).

    Members are validated for mutual dimensional consistency and finiteness
    on construction, and so are the Gram matrices BB', C'C and D'D that the
    norm's Hamiltonian is formed from.
    """

    A: np.ndarray
    B_in: np.ndarray
    C_out: np.ndarray
    D_ff: np.ndarray

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        self.B_in = _as_matrix(self.B_in, "B_in")
        self.C_out = _as_matrix(self.C_out, "C_out")
        self.D_ff = _as_matrix(self.D_ff, "D_ff")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ShapeError(f"A must be square, got {self.A.shape}")
        if self.B_in.shape[0] != n:
            raise ShapeError("B_in row count must match A")
        if self.C_out.shape[1] != n:
            raise ShapeError("C_out column count must match A")
        if self.D_ff.shape != (self.C_out.shape[0], self.B_in.shape[1]):
            raise ShapeError("D_ff must be (outputs x inputs)")
        _check_grams(("B_in B_in'", self.B_in, self.B_in.T),
                     ("C_out' C_out", self.C_out.T, self.C_out),
                     ("D_ff' D_ff", self.D_ff.T, self.D_ff))


@dataclass
class CareProblem:
    """Data for the gamma-parameterized Riccati equation.

    ``gamma`` is the disturbance attenuation level (+inf for the
    disturbance-free / LQR limit); ``B`` maps the control, ``B_w`` the
    exogenous disturbance, and ``C`` weights the state in the performance
    output.  Stabilizability of (A, B) and detectability of
    (C, A) are probed with PBH singular-value tests when the problem is
    solved; failures are reported as warnings on the solution rather than
    as hard errors.
    """

    A: np.ndarray
    B: np.ndarray
    B_w: np.ndarray
    C: np.ndarray
    gamma: float

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        self.B = _as_matrix(self.B, "B")
        self.B_w = _as_matrix(self.B_w, "B_w")
        self.C = _as_matrix(self.C, "C")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ShapeError(f"A must be square, got {self.A.shape}")
        for name, mat in (("B", self.B), ("B_w", self.B_w)):
            if mat.shape[0] != n:
                raise ShapeError(f"{name} row count must match A")
        if self.C.shape[1] != n:
            raise ShapeError("C column count must match A")
        self.gamma = float(self.gamma)
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        _check_grams(("B B'", self.B, self.B.T), ("B_w B_w'", self.B_w, self.B_w.T),
                     ("C'C", self.C.T, self.C))


@dataclass
class HinfSolution:
    """A verified stabilizing solution of the Riccati equation.

    Attributes:
        gamma: attenuation level the equation was solved at (+inf for the
            disturbance-free / LQR limit).
        X: symmetric PSD Riccati solution.
        K: feedback gain row(s), B' X.  The control law applies the minus
            sign, u = -K x.
        closed_loop_eigs: eigenvalues of A - B K (the loop as flown).
        worst_case_eigs: eigenvalues of A - (B B' - gamma^-2 Bw Bw') X,
            the stabilizing-solution certificate (strictly open left
            half-plane).
        residual: Frobenius norm of the Riccati residual at X.
        warnings: PBH stabilizability/detectability findings, if any.
    """

    gamma: float
    X: np.ndarray
    K: np.ndarray
    closed_loop_eigs: np.ndarray
    worst_case_eigs: np.ndarray
    residual: float
    warnings: tuple[str, ...] = field(default=())


def _pbh_warnings(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> tuple[str, ...]:
    """PBH rank probes for stabilizability of (A, B) and detectability of (C, A).

    Rank deficiency is declared when the smallest singular value falls below
    1e-9 times the largest.  Only eigenvalues with non-negative real part
    matter for either property.
    """
    notes = []
    eigs = np.linalg.eigvals(A)
    for lam in eigs[eigs.real >= 0.0]:
        shifted = A - lam * np.eye(A.shape[0])
        sv = np.linalg.svd(np.hstack([shifted, B]), compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            notes.append(
                f"(A, B) may not be stabilizable: PBH near-rank-deficient at eigenvalue {lam:.6g}"
            )
        sv = np.linalg.svd(np.vstack([shifted, C]), compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            notes.append(
                f"(C, A) may not be detectable: PBH near-rank-deficient at eigenvalue {lam:.6g}"
            )
    return tuple(notes)


def _hamiltonian(M: np.ndarray, S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """H = [[M, S], [L, -M']], filled into one preallocated 2n x 2n array.

    The callers pass their off-diagonal blocks already signed, so H holds
    exactly the bits that np.block would assemble from the same operands.
    """
    n = M.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = M
    H[:n, n:] = S
    H[n:, :n] = L
    np.negative(M.T, out=H[n:, n:])
    return H


def _stable_subspace_root(A: np.ndarray, G: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Stabilizing root of X A + A' X - X G X + Q = 0 via the Hamiltonian.

    Builds H = [[A, -G], [-Q, -A']], takes the n eigenvectors belonging to
    strictly-stable eigenvalues, and forms X = X2 X1^-1 from the stacked
    basis.  A non-finite G (gamma^-2 BwBw' overflowed), near-axis
    eigenvalues, a wrong-dimensional stable set, or an ill-conditioned X1
    all raise NoStabilizingSolution.
    """
    n = A.shape[0]
    H = _hamiltonian(A, -G, -Q)
    with np.errstate(over="ignore"):
        h_scale = np.linalg.norm(H, "fro")
    if not math.isfinite(h_scale):
        if not np.all(np.isfinite(H)):
            raise NoStabilizingSolution(
                "G = BB' - gamma^-2 BwBw' is not finite: gamma^-2 BwBw' overflows at this level"
            )
        # Finite entries whose squares overflow: s ||H / s||_F with s = max |H|.
        s = np.abs(H).max()
        h_scale = s * np.linalg.norm(H / s, "fro")
    eigvals, eigvecs = np.linalg.eig(H)

    if np.any(np.abs(eigvals.real) < _AXIS_TOL * h_scale):
        raise NoStabilizingSolution(
            "Hamiltonian has eigenvalues on the imaginary axis; "
            "the attenuation level is at or below the achievable minimum"
        )
    stable = eigvals.real < 0.0
    if int(stable.sum()) != n:
        raise NoStabilizingSolution(
            f"stable subspace has dimension {int(stable.sum())}, expected {n}"
        )

    basis = eigvecs[:, stable]
    X1 = basis[:n, :]
    X2 = basis[n:, :]
    # np.linalg.cond's own 2-norm formula, without its call overhead.
    sv = np.linalg.svd(X1, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf
    if not np.isfinite(cond) or cond > _MAX_BASIS_COND:
        raise NoStabilizingSolution(
            f"subspace basis is numerically singular (cond={cond:.3g}); "
            "the solution has blown up at this attenuation level"
        )

    X = X2 @ np.linalg.inv(X1)
    x_scale = max(1.0, float(np.abs(X).max()))
    if float(np.abs(X.imag).max()) > 1e-8 * x_scale:
        raise NoStabilizingSolution("stable subspace produced a non-real solution")
    X = X.real
    return 0.5 * (X + X.T)


def _riccati_terms(problem: CareProblem) -> tuple:
    """The gamma-free terms of the equation: BB', BwBw', Q = C'C, ||BB'||_F and ||Q||_F."""
    BBt, Q = problem.B @ problem.B.T, problem.C.T @ problem.C
    return (BBt, problem.B_w @ problem.B_w.T, Q,
            float(np.linalg.norm(BBt, "fro")), float(np.linalg.norm(Q, "fro")))


def _square(x: float) -> np.float64:
    """x ** 2 with the bits of a Python float's, but inf where that overflows."""
    with np.errstate(over="ignore"):
        return np.float64(x) ** 2


def _riccati_g(BBt, WWt, gamma: float) -> np.ndarray:
    """G = BB' - gamma^-2 BwBw'; a gamma whose square overflows is the LQR limit, as inf.

    G is BB' whenever BwBw' is zero, even where gamma^2 underflows to 0;
    otherwise a gamma^-2 BwBw' that overflows leaves G non-finite.
    """
    scale = _square(gamma)
    if scale == 0.0 and not WWt.any():  # 0 / 0 would be nan
        return BBt - WWt
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return BBt - WWt / scale


def _residual(A, G, Q, X) -> np.ndarray:
    """X A + A' X - X G X + Q, the equation's left side at X."""
    return X @ A + A.T @ X - X @ G @ X + Q


def _verified_root(A, terms: tuple, gamma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The feasibility test of one level: solve_care's acceptance checks.

    G comes from _riccati_g, the one function that forms it, so solve_care
    and gamma_search decide a level on the same bits.  The stable-subspace
    root X of X A + A' X - X G X + Q = 0 must be PSD, stabilize A - G X and
    meet the residual bound 1e-8 * max(1, ||Q||_F, ||X||_F^2 ||BB'||_F).
    Returns X, the eigenvalues of A - G X and the residual; raises what solve_care raises.
    """
    BBt, WWt, Q, bbt_norm, q_norm = terms
    G = _riccati_g(BBt, WWt, gamma)
    X = _stable_subspace_root(A, G, Q)

    x_norm = np.linalg.norm(X, "fro")
    lam_min = float(np.linalg.eigvalsh(X)[0])
    if lam_min < -1e-8 * max(1.0, x_norm):
        raise IndefiniteSolution(
            f"stabilizing root is not positive semidefinite (lambda_min={lam_min:.6g})"
        )

    worst_eigs = np.linalg.eigvals(A - G @ X)
    if float(worst_eigs.real.max()) >= 0.0:
        raise NoStabilizingSolution(
            "extracted root does not stabilize A - G X; no valid solution at this level"
        )

    residual = float(np.linalg.norm(_residual(A, G, Q, X), "fro"))
    scale = max(1.0, q_norm, float(x_norm**2 * bbt_norm))
    if residual > 1e-8 * scale:
        raise NoStabilizingSolution(
            f"Riccati residual {residual:.3g} exceeds tolerance {1e-8 * scale:.3g}; "
            "the level is too close to the feasibility boundary"
        )
    return X, worst_eigs, residual


def solve_care(problem: CareProblem) -> HinfSolution:
    """Solve the gamma-parameterized Riccati equation for its stabilizing root.

    Returns an HinfSolution whose X is symmetric, PSD up to tolerance, and
    satisfies the residual bound 1e-8 * max(1, ||C'C||_F, ||X||_F^2 ||BB'||_F).

    Raises:
        NoStabilizingSolution: gamma at or below the achievable level.
        IndefiniteSolution: stabilizing root exists but is not PSD.
    """
    A, B = problem.A, problem.B
    warnings = _pbh_warnings(A, B, problem.C)
    X, worst_eigs, residual = _verified_root(A, _riccati_terms(problem), problem.gamma)
    K = B.T @ X
    return HinfSolution(
        gamma=problem.gamma,
        X=X,
        K=K,
        closed_loop_eigs=np.linalg.eigvals(A - B @ K),
        worst_case_eigs=worst_eigs,
        residual=residual,
        warnings=warnings,
    )


def solve_lqr(A, B, C) -> HinfSolution:
    """Solve X A + A' X - X B B' X + C' C = 0 (the disturbance-free limit).

    solve_care at gamma = +inf with no disturbance input; same contract.
    """
    B_w = np.zeros(np.atleast_2d(B).shape)
    return solve_care(CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=math.inf))


def care_residual(problem: CareProblem, X) -> float:
    """Frobenius norm of X A + A' X - X (BB' - gamma^-2 BwBw') X + C'C."""
    X = _as_matrix(X, "X")
    n = problem.A.shape[0]
    if X.shape != (n, n):
        raise ShapeError(f"X must be {n}x{n}, got {X.shape}")
    BBt, WWt, Q, _, _ = _riccati_terms(problem)
    G = _riccati_g(BBt, WWt, problem.gamma)
    return float(np.linalg.norm(_residual(problem.A, G, Q, X), "fro"))


def _gain(A, B, C, D, w: float) -> float:
    """sigma_max(G(jw)) of G(s) = C (sI - A)^-1 B + D; NonFiniteGain if G(jw) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = C @ np.linalg.solve(1j * w * np.eye(A.shape[0]) - A, B) + D
    if not np.isfinite(G).all():
        raise NonFiniteGain(f"G(jw) at w = {w!r} rad/s overflows a double")
    return float(np.linalg.norm(G, 2))


def _axis_crossing(A, B, C, D, gamma: float) -> np.ndarray:
    """Sorted frequencies w >= 0 at which a singular value of G(jw) equals gamma.

    They are the imaginary-axis eigenvalues of the norm-test Hamiltonian at
    this level, which must exceed sigma_max(D).
    """
    p = C.shape[0]
    # gamma^2 on a diagonal, not times eye: an inf square times 0 would be nan.
    Rinv = np.linalg.inv(np.diag(np.full(D.shape[1], _square(gamma))) - D.T @ D)
    M = A + B @ Rinv @ D.T @ C
    H = _hamiltonian(M, B @ Rinv @ B.T, -C.T @ (np.eye(p) + D @ Rinv @ D.T) @ C)
    eigs = np.linalg.eigvals(H)
    on_axis = np.abs(eigs.real) <= 1e-8 * (1.0 + np.abs(eigs))
    return np.sort(eigs.imag[on_axis & (eigs.imag >= 0.0)])


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def hinf_norm(sys: StateSpace, tol: float = 1e-6) -> float:
    """H-infinity norm of a stable system by the level-set iteration.

    Bruinsma and Steinbuch (Systems & Control Letters 14, 1990), after
    Boyd, Balakrishnan and Kabamba (Math. Control Signals Systems 2, 1989).
    The lower bound lb is always an evaluated gain sigma_max(G(jw)); it
    starts as the largest at w = 0, infinity and the most resonant pole's
    |lambda|.  Each pass tests the level (1 + tol) lb, or the next float
    above lb where that rounds to lb: with no crossing, lb is within tol of
    the norm and is returned.  Otherwise lb rises to the
    largest gain at the crossings and their midpoints; a pass that does not
    raise it (crossings within rounding) also returns lb.  Past a fixed pass
    cap the function raises.

    Args:
        sys: state-space data; A must be Hurwitz.
        tol: relative tolerance on the returned value; finite and positive.

    Raises:
        ValueError: tol is not finite and positive.
        UnstableSystem: A has an eigenvalue with non-negative real part.
        NonFiniteGain: a gain evaluated on the axis overflows a double.
        RuntimeError: the iteration did not converge within its pass cap.
    """
    _check_tol(tol)
    A, B, C, D = sys.A, sys.B_in, sys.C_out, sys.D_ff
    poles = np.linalg.eigvals(A)
    if float(poles.real.max()) >= 0.0:
        raise UnstableSystem("A is not Hurwitz; the H-infinity norm is unbounded")

    resonant = poles[np.argmax(np.abs(poles.imag / poles.real))]
    lb = max(float(np.linalg.norm(D, 2)), _gain(A, B, C, D, 0.0),
             _gain(A, B, C, D, abs(resonant)))
    for _ in range(_MAX_LEVEL_PASSES):
        # The 1e-12 floor keeps the level test away from gamma^-2 overflow on
        # (numerically) zero transfer functions; anything below it is zero.
        level = max((1.0 + tol) * lb, math.nextafter(lb, math.inf), 1e-12)
        crossings = _axis_crossing(A, B, C, D, level)
        if crossings.size == 0:
            return lb
        probes = np.concatenate([crossings, 0.5 * (crossings[1:] + crossings[:-1])])
        peak = max(_gain(A, B, C, D, w) for w in probes)
        if peak <= lb:
            return lb
        lb = peak
    raise RuntimeError(f"hinf_norm did not converge in {_MAX_LEVEL_PASSES} level passes")


def gamma_search(
    A,
    B,
    B_w,
    C,
    bracket: tuple[float, float],
    tol: float = 1e-6,
    history: list | None = None,
) -> float:
    """Bisect the attenuation level down to the feasibility boundary.

    Feasibility means solve_care would return a verified solution; both
    failure modes (axis eigenvalues and indefinite roots) count as
    infeasible.  A level is decided by solve_care's acceptance checks on
    the G of the one function that forms it, without its PBH probes, gain
    and loop poles: the probes do not depend on gamma, and neither the gain
    nor the poles decide feasibility.  Assumes feasibility is monotone in
    gamma.  If the lower bracket end is itself feasible the search returns
    it unchanged (e.g. B_w = 0, where every positive level is feasible).

    The search is the plain bisection: hi, lo, then midpoints until the
    bracket is within tol or no float lies strictly between its ends (a
    tol below the float spacing stops at adjacent floats).  Its first run
    of feasible levels only halves hi toward lo, so those levels are known
    before any is decided.  A binary search over hi, the run and lo finds
    the last feasible one (6 solves for the bracket (1e-3, 1e6) at tol
    1e-6), and the bisection takes the run's verdicts from it; those of
    the levels it did not solve rest on monotonicity.  Worst case: a
    bracket whose first level is already infeasible spends those log2
    solves where the plain bisection spends three.

    When `history` is a list, it receives `(gamma, feasible)` for each
    level of the bisection, in order: both bracket ends, then every
    midpoint.

    Raises:
        BracketInvalid: malformed bracket, or an infeasible upper end.
        ValueError: tol is not finite and positive.
    """
    _check_tol(tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi < math.inf):
        raise BracketInvalid(f"bracket must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")

    problem = CareProblem(A=A, B=B, B_w=B_w, C=C, gamma=hi)
    terms = _riccati_terms(problem)

    def feasible(gamma: float) -> bool:
        try:
            _verified_root(problem.A, terms, gamma)
        except (NoStabilizingSolution, IndefiniteSolution):
            return False
        return True

    def level(lo: float, hi: float) -> float | None:
        # The next bisection level, or None once the bracket is within tol
        # or no float lies strictly between its ends.
        mid = 0.5 * (lo + hi)
        return mid if (hi - lo) > tol * hi and lo < mid < hi else None

    # hi, the levels of the plain bisection's first run, and lo.
    run = [hi]
    while (h := level(lo, run[-1])) is not None:
        run.append(h)
    run.append(lo)
    # ok: the last feasible index of run, found by a binary search.
    ok, bad = -1, len(run)
    while bad - ok > 1:
        k = (ok + bad) // 2
        if feasible(run[k]):
            ok = k
        else:
            bad = k
    if ok < 0:
        raise BracketInvalid(f"upper bracket end gamma={hi} is infeasible")
    known = {gamma: i <= ok for i, gamma in enumerate(run)}

    def decide(gamma: float) -> bool:
        verdict = known[gamma] if gamma in known else feasible(gamma)
        if history is not None:
            history.append((gamma, verdict))
        return verdict

    decide(hi)
    if decide(lo):
        return lo
    while (mid := level(lo, hi)) is not None:
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return hi
