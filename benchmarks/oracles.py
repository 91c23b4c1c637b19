"""Checks of the program's outputs, computed apart from the program.

Everything here uses numpy and scipy on the scenario's data (coefficient
anchors, command breakpoints, disturbance parameters, design point); none
of it calls the program's numerical routines.  Each check returns a list of
failure messages, empty when the output is correct.

Tolerances, and why they are what they are:
- step relations (servo update, RK4 plant step, gyro recurrence) are the
  program's arithmetic regrouped; they agree to about 1e-15 relative and
  are held to 1e-10 relative to the size of the terms involved (the control
  law, whose gain comes from scipy, to 1e-9; theta, q and the disturbance
  samples to 1e-12);
- the deflection step may exceed the rate bound by 1e-12 relative plus four
  units of rounding of the deflection itself;
- the Riccati solution is compared with scipy's within 1e-14 times the
  condition estimate ||X|| ||G|| / |slowest pole of A - G X| (at least
  1e-9); the largest ratio of error to estimate seen on these inputs was
  0.9e-16;
- hinf_norm must agree with a refined frequency-grid peak (or the
  analytic peak) within the relative tolerance it was asked for.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg
import scipy.optimize

TRACE_HEADER = "t,int_e,e,vz,theta_rad,q_rad_s,delta_rad,u_rad,w1,w2,q_meas_rad_s"
COEFF_NAMES = ("Z_v", "Z_q", "Z_theta", "Z_delta", "M_v", "M_q", "M_delta")
STEP_RTOL = 1e-10
METRICS_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Scenario data


def scenario_data(scenario, gyro: tuple[float, float]) -> dict:
    """Plain numbers of a ltv-plant program Scenario (read from its fields only).

    `gyro` is (natural frequency, damping term 2 zeta wn) of the rate gyro.
    """
    def coeff_row(c):
        return [float(getattr(c, name)) for name in COEFF_NAMES]

    def prim(p):
        kind = type(p).__name__.lower()
        return (kind, {k: float(v) for k, v in vars(p).items()})

    if scenario.plant_mode != "ltv":
        raise ValueError(f"the oracle models ltv plants, not {scenario.plant_mode!r}")
    design = scenario.design
    return {
        "t_span": tuple(scenario.t_span),
        "dt": float(scenario.dt),
        "feedback": scenario.feedback_source,
        "gyro": gyro,
        "tau": float(scenario.servo_tau),
        "rate_limit": float(scenario.servo_rate_limit),
        "sched_t": np.array([t for t, _ in scenario.schedule.breakpoints]),
        "sched": np.array([coeff_row(c) for _, c in scenario.schedule.breakpoints]),
        "profile": np.array(scenario.profile.breakpoints, dtype=float),
        "design_coeffs": np.array(coeff_row(design.coeffs)),
        "gamma": float(design.gamma),
        "C_perf": np.array(design.C_perf, dtype=float),
        "channels": [[prim(p) for p in scenario.disturbances.channel1],
                     [prim(p) for p in scenario.disturbances.channel2]],
    }


def plant(c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, B_w) of the tracking-error pitch plant from the seven coefficients."""
    Zv, Zq, Zth, Zd, Mv, Mq, Md = c
    A = np.array([[0.0, 1.0, 0.0], [0.0, Mq, -Mv], [-Zth, -Zq, Zv]])
    B = np.array([[0.0], [-Md], [Zd]])
    Bw = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return A, B, Bw


class Profile:
    """Piecewise-linear q_c(t), clamped outside its breakpoints."""

    def __init__(self, breakpoints: np.ndarray):
        self.ts = breakpoints[:, 0]
        self.qs = breakpoints[:, 1]
        seg = np.diff(self.ts) * (self.qs[1:] + self.qs[:-1]) / 2.0
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.zero = self._from_first(np.array([0.0]))[0]

    def rate(self, t):
        return np.interp(t, self.ts, self.qs)

    def slope(self, t):
        """Slope of the segment holding t (right-continuous), zero outside."""
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        s = (self.qs[seg + 1] - self.qs[seg]) / (self.ts[seg + 1] - self.ts[seg])
        return np.where((t >= self.ts[0]) & (t < self.ts[-1]), s, 0.0)

    def _from_first(self, t):
        ts, qs = self.ts, self.qs
        seg = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        inside = np.clip(t, ts[seg], ts[seg + 1]) - ts[seg]
        q_end = qs[seg] + (qs[seg + 1] - qs[seg]) * inside / (ts[seg + 1] - ts[seg])
        value = self.cum[seg] + inside * (qs[seg] + q_end) / 2.0
        value = value + np.where(t < ts[0], qs[0] * (t - ts[0]), 0.0)
        return value + np.where(t > ts[-1], qs[-1] * (t - ts[-1]), 0.0)

    def integral(self, t):
        """Integral of q_c from time 0 to t."""
        return self._from_first(np.asarray(t, dtype=float)) - self.zero


def disturbance(channels, t: np.ndarray) -> np.ndarray:
    """(len(t), 2) disturbance samples from the primitives' parameters."""
    out = np.zeros((t.size, 2))
    for j, prims in enumerate(channels):
        for kind, p in prims:
            if kind == "sine":
                out[:, j] += p["amplitude"] * np.sin(p["frequency"] * t + p["phase"])
            elif kind == "step":
                out[:, j] += np.where(t >= p["t0"], p["amplitude"], 0.0)
            elif kind == "noise":
                idx = np.maximum(np.floor(t / p["hold"] + 1e-9).astype(np.int64), 0)
                draws = np.random.default_rng(int(p["seed"])).uniform(-1.0, 1.0, int(idx.max()) + 1)
                out[:, j] += p["amplitude"] * draws[idx]
            else:
                raise ValueError(f"unknown primitive {kind}")
    return out


def riccati(A, B, Bw, C, gamma: float):
    """Stabilizing X of the H-infinity equation from scipy, and K = B'X."""
    Baug = np.hstack([B, Bw])
    R = np.diag([1.0] + [-gamma * gamma] * Bw.shape[1])
    X = scipy.linalg.solve_continuous_are(A, Baug, C.T @ C, R)
    X = 0.5 * (X + X.T)
    return X, B.T @ X


# ---------------------------------------------------------------------------
# Closed-loop traces


def _close(actual, expected, scale, rtol) -> np.ndarray:
    """Indices where |actual - expected| > rtol * scale."""
    bad = ~(np.abs(actual - expected) <= rtol * scale)
    return np.flatnonzero(bad)


def _trapezoid(y, t) -> float:
    return float(np.sum((y[1:] + y[:-1]) * np.diff(t)) / 2.0)


def check_trace(data: dict, tr: dict, metrics: dict) -> list[str]:
    """Step-by-step checks of one closed-loop trace against its scenario."""
    fails = []
    t0, tf = data["t_span"]
    dt = data["dt"]
    n = int(round((tf - t0) / dt))
    t = tr["t"]
    if len(t) != n + 1:
        return [f"trace has {len(t)} samples, expected {n + 1}"]
    x, delta, u, w, qm = tr["x"], tr["delta"], tr["u"], tr["w"], tr["q_meas"]
    if _close(t, t0 + dt * np.arange(n + 1), 1.0, 1e-12).size:
        fails.append("time column is not the uniform grid")

    # Servo: rate-limited first-order lag, forward Euler.
    tau, rlim = data["tau"], data["rate_limit"]
    step = np.abs(np.diff(delta))
    eps = np.finfo(float).eps
    if np.any(step > rlim * dt * (1.0 + 1e-12) + 4.0 * eps * np.abs(delta[1:])):
        fails.append(f"deflection rate bound exceeded at step {int(np.argmax(step))}")
    expect = delta[:-1] + np.clip((u[:-1] - delta[:-1]) / tau, -rlim, rlim) * dt
    bad = _close(delta[1:], expect, np.abs(delta[:-1]) + rlim * dt, STEP_RTOL)
    if bad.size:
        fails.append(f"servo update wrong at {bad.size} steps (first {bad[0]})")

    # Control law with the gain from an independent Riccati solve.
    A, B, Bw = plant(data["design_coeffs"])
    _, K = riccati(A, B, Bw, data["C_perf"], data["gamma"])
    k0, k1, k2 = K[0]
    prof = Profile(data["profile"])
    qc = prof.rate(t)
    e_ch = qc - qm if data["feedback"] == "gyro_rate" else x[:, 1]
    terms = np.abs(k0 * x[:, 0]) + np.abs(k1 * e_ch) + np.abs(k2 * x[:, 2])
    bad = _close(u, -(k0 * x[:, 0] + k1 * e_ch + k2 * x[:, 2]), terms, 1e-9)
    if bad.size:
        fails.append(f"u != -K x at {bad.size} samples (first {bad[0]})")

    # Gyro: q_meas obeys the two-step recurrence of one RK4 step per sample
    # of the second-order filter driven by the true rate q_c - e held at t_k.
    bad = _gyro_mismatch(data["gyro"], dt, qm, qc - x[:, 1])
    if bad.size:
        fails.append(f"gyro output wrong at {bad.size} steps (first {bad[0]})")

    # Attitude reconstruction and disturbance samples.
    integ = prof.integral(t)
    if _close(tr["theta"], integ - x[:, 0], np.abs(integ) + np.abs(x[:, 0]), 1e-12).size:
        fails.append("theta != integral(q_c) - int_e")
    if _close(tr["q"], qc - x[:, 1], np.abs(qc) + np.abs(x[:, 1]), 1e-12).size:
        fails.append("q != q_c - e")
    w_exp = disturbance(data["channels"], t)
    if _close(w, w_exp, np.abs(w_exp) + 1e-300, 1e-12).size:
        fails.append("disturbance samples differ from their definition")

    # Plant: one classical RK4 step per sample, coefficients and command at
    # the stage times, deflection (after the servo step) and w held.
    bad_steps = 0
    first_bad = None
    chunk = 100_000
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        k = np.arange(lo, hi)
        fails_k = _rk4_mismatch(data, prof, x, delta, w, k)
        bad_steps += fails_k.size
        if fails_k.size and first_bad is None:
            first_bad = int(k[fails_k[0]])
    if bad_steps:
        fails.append(f"x[k+1] differs from an RK4 step at {bad_steps} steps (first {first_bad})")

    return fails + check_metrics(data, tr, prof, metrics)


def _rk4_mismatch(data, prof: Profile, x, delta, w, k) -> np.ndarray:
    t0, dt = data["t_span"][0], data["dt"]

    def stage(j):  # j: index on the half-step grid t0 + dt/2 * j
        th = t0 + 0.5 * dt * j
        c = [np.interp(th, data["sched_t"], data["sched"][:, i]) for i in range(7)]
        return c, prof.rate(th), prof.slope(th), prof.integral(th)

    dl = delta[k + 1]
    w1, w2 = w[k, 0], w[k, 1]

    def f(s, st):
        (Zv, Zq, Zth, Zd, Mv, Mq, Md), qc, dqc, iqc = st
        d0 = s[:, 1]
        d1 = Mq * s[:, 1] - Mv * s[:, 2] - Md * dl + w2 + dqc - Mq * qc
        d2 = -Zth * s[:, 0] - Zq * s[:, 1] + Zv * s[:, 2] + Zd * dl + w1 + Zq * qc + Zth * iqc
        return np.column_stack([d0, d1, d2])

    s0 = x[k]
    mid = stage(2 * k + 1)
    k1 = f(s0, stage(2 * k))
    k2 = f(s0 + 0.5 * dt * k1, mid)
    k3 = f(s0 + 0.5 * dt * k2, mid)
    k4 = f(s0 + dt * k3, stage(2 * k + 2))
    incr = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    scale = np.abs(s0).max(axis=1) + dt * np.abs(np.stack([k1, k2, k3, k4])).max(axis=(0, 2))
    err = np.abs(x[k + 1] - (s0 + incr)).max(axis=1)
    return np.flatnonzero(~(err <= STEP_RTOL * scale))


def _gyro_mismatch(gyro, dt: float, y, rate) -> np.ndarray:
    """Steps where y (gyro output) breaks the RK4 recurrence, state g2(0) = 0.

    One RK4 step of g' = Ag g + Bg r is g+ = P g + Gm r with P and Gm the
    degree-4 Taylor polynomials; eliminating the unmeasured g2 with
    Cayley-Hamilton gives y[k+2] = tr(P) (y[k+1] - c Gm r[k]) - det(P) y[k]
    + c P Gm r[k] + c Gm r[k+1].
    """
    wn, damp = gyro
    hA = dt * np.array([[0.0, 1.0], [-wn * wn, -damp]])
    eye = np.eye(2)
    P = eye + hA + hA @ hA / 2.0 + hA @ hA @ hA / 6.0 + hA @ hA @ hA @ hA / 24.0
    Gm = dt * (eye + hA / 2.0 + hA @ hA / 6.0 + hA @ hA @ hA / 24.0) @ np.array([0.0, wn * wn])
    tr, det = np.trace(P), np.linalg.det(P)
    cG, cPG = Gm[0], (P @ Gm)[0]
    r0, r1 = rate[:-2], rate[1:-1]
    terms = [tr * y[1:-1], tr * cG * r0, det * y[:-2], cPG * r0, cG * r1]
    expect = terms[0] - terms[1] - terms[2] + terms[3] + terms[4]
    scale = sum(np.abs(term) for term in terms) + np.abs(y[2:])
    bad = _close(y[2:], expect, scale, STEP_RTOL) + 2
    first = P[0, 0] * y[0] + cG * rate[0]
    if not abs(y[1] - first) <= STEP_RTOL * (abs(y[1]) + abs(P[0, 0] * y[0]) + abs(cG * rate[0])):
        bad = np.concatenate([[1], bad])
    return bad


def check_metrics(data: dict, tr: dict, prof: Profile, metrics: dict) -> list[str]:
    t, e, delta, w = tr["t"], tr["x"][:, 1], tr["delta"], tr["w"]
    span = t[-1] - t[0]
    theta_err = tr["theta"] - prof.integral(t)
    dt = t[1] - t[0]
    w_energy = _trapezoid(w[:, 0] ** 2 + w[:, 1] ** 2, t)
    e_energy = _trapezoid(e * e, t)
    expect = {
        "rms_e": math.sqrt(e_energy / span),
        "max_abs_e": float(np.abs(e).max()),
        "rms_theta_err": math.sqrt(_trapezoid(theta_err ** 2, t) / span),
        "max_abs_delta": float(np.abs(delta).max()),
        "servo_saturation_fraction": float(np.mean(
            np.abs(np.diff(delta)) >= data["rate_limit"] * dt * (1.0 - 1e-9))),
        "energy_ratio": e_energy / w_energy if w_energy > 0.0 else 0.0,
    }
    fails = []
    if set(metrics) != set(expect):
        fails.append(f"metrics keys {sorted(metrics)} != {sorted(expect)}")
    for key, value in expect.items():
        got = metrics.get(key)
        if got is None or not abs(got - value) <= METRICS_RTOL * abs(value) + 1e-300:
            fails.append(f"metric {key} = {got!r}, recomputed {value!r}")
    return fails


def read_trace_csv(path: str) -> tuple[dict | None, list[str]]:
    """Columns of a trace CSV (header checked), or the reasons it is malformed."""
    with open(path, "rb") as handle:
        header, _, body = handle.read().partition(b"\n")
    if header.decode() != TRACE_HEADER:
        return None, [f"trace header {header[:120]!r} != {TRACE_HEADER!r}"]
    rows = body.count(b"\n")
    values = np.array(body.replace(b"\n", b",").split(b",")[:-1], dtype=float)
    del body
    if values.size != rows * 11:
        return None, [f"trace has {values.size} values in {rows} rows, expected 11 per row"]
    cols = values.reshape(rows, 11)
    return {
        "t": cols[:, 0].copy(), "x": cols[:, 1:4].copy(), "theta": cols[:, 4].copy(),
        "q": cols[:, 5].copy(), "delta": cols[:, 6].copy(), "u": cols[:, 7].copy(),
        "w": cols[:, 8:10].copy(), "q_meas": cols[:, 10].copy(),
    }, []


def check_cli_simulate(data: dict, op_dir: str) -> list[str]:
    tr, fails = read_trace_csv(f"{op_dir}/trace.csv")
    if tr is None:
        return fails
    with open(f"{op_dir}/metrics.json") as handle:
        metrics = json.load(handle)
    return check_trace(data, tr, metrics)


# ---------------------------------------------------------------------------
# Synthesis


def feasible(A, B, Bw, C, gamma: float) -> tuple[bool, float]:
    """Independent feasibility at gamma, and the condition estimate of X."""
    try:
        X, _ = riccati(A, B, Bw, C, gamma)
    except (np.linalg.LinAlgError, ValueError):
        return False, math.inf
    if not np.all(np.isfinite(X)):
        return False, math.inf
    G = B @ B.T - Bw @ Bw.T / gamma**2
    x_norm = np.linalg.norm(X)
    if np.linalg.eigvalsh(X)[0] < -1e-8 * max(1.0, x_norm):
        return False, math.inf
    slowest = -np.linalg.eigvals(A - G @ X).real.max()
    if not slowest > 0.0:
        return False, math.inf
    return True, x_norm * np.linalg.norm(G) / slowest


def riccati_conditioned(A, B, Bw, C, gamma: float) -> tuple[np.ndarray, float]:
    """scipy's X and the condition estimate ||X|| ||G|| / |slowest pole of A - G X|."""
    X, _ = riccati(A, B, Bw, C, gamma)
    G = B @ B.T - Bw @ Bw.T / gamma**2
    slowest = -np.linalg.eigvals(A - G @ X).real.max()
    return X, np.linalg.norm(X) * np.linalg.norm(G) / slowest


def conditioned_rtol(kappa: float) -> float:
    """Relative accuracy expected of a Riccati solution with condition estimate kappa."""
    return max(1e-9, 1e-14 * kappa)


def check_solution(A, B, Bw, C, gamma: float, X, K) -> list[str]:
    """Riccati residual, PSD, stabilizing and closed-loop checks, and scipy's X."""
    X = np.asarray(X, dtype=float)
    K = np.asarray(K, dtype=float)
    fails = []
    G = B @ B.T - Bw @ Bw.T / gamma**2
    Q = C.T @ C
    x_norm = np.linalg.norm(X)
    residual = np.linalg.norm(X @ A + A.T @ X - X @ G @ X + Q)
    scale = max(1.0, np.linalg.norm(Q), x_norm**2 * np.linalg.norm(B @ B.T))
    if not residual <= 1e-8 * scale:
        fails.append(f"Riccati residual {residual:.3g} > {1e-8 * scale:.3g}")
    if not np.allclose(X, X.T, rtol=0.0, atol=1e-12 * max(1.0, x_norm)):
        fails.append("X is not symmetric")
    if np.linalg.eigvalsh(0.5 * (X + X.T))[0] < -1e-8 * max(1.0, x_norm):
        fails.append("X is not positive semidefinite")
    if not np.linalg.eigvals(A - G @ X).real.max() < 0.0:
        fails.append("A - G X is not Hurwitz (X not stabilizing)")
    if not np.linalg.eigvals(A - B @ K).real.max() < 0.0:
        fails.append("A - B K is not Hurwitz")
    if not np.allclose(K, B.T @ X, rtol=1e-12, atol=1e-12 * max(1.0, float(np.abs(B.T @ X).max()))):
        fails.append("K != B' X")
    Xs, kappa = riccati_conditioned(A, B, Bw, C, gamma)
    rel = np.linalg.norm(X - Xs) / np.linalg.norm(Xs)
    if not rel <= conditioned_rtol(kappa):
        fails.append(f"X differs from scipy's by {rel:.3g} relative (condition estimate {kappa:.3g})")
    return fails


def check_gamma_min(A, B, Bw, C, gamma_min: float) -> tuple[list[str], float]:
    """gamma_min bracketed by independent feasible / infeasible solves.

    Feasible at gamma_min (1 + 1e-4) always; infeasible at gamma_min (1 - 1e-4)
    where that solution is well conditioned (estimate <= 1e10), else at
    gamma_min (1 - 2e-2).  Returns the failures and the lower margin used.
    """
    ok, kappa = feasible(A, B, Bw, C, gamma_min * (1.0 + 1e-4))
    if not ok:
        return [f"gamma_min {gamma_min!r} is not independently feasible at +1e-4"], 0.0
    margin = 1e-4 if kappa <= 1e10 else 2e-2
    if feasible(A, B, Bw, C, gamma_min * (1.0 - margin))[0]:
        return [f"level gamma_min (1 - {margin:g}) is independently feasible; "
                f"gamma_min {gamma_min!r} is not the boundary"], margin
    return [], margin


def grid_norm(A, B, C, D) -> float:
    """Peak singular value of C (jw - A)^-1 B + D on a dense grid, refined."""
    eig = np.abs(np.linalg.eigvals(A))
    lo = math.log10(max(eig.min(), 1e-6)) - 3.0
    hi = math.log10(max(eig.max(), 1.0)) + 3.0
    n = A.shape[0]

    def sigma(logw: float) -> float:
        G = C @ np.linalg.solve(1j * 10.0**logw * np.eye(n) - A, B) + D
        return float(np.linalg.svd(G, compute_uv=False)[0])

    logws = np.linspace(lo, hi, 4001)
    M = 1j * (10.0 ** logws)[:, None, None] * np.eye(n)[None] - A[None]
    G = C[None] @ np.linalg.solve(M, np.broadcast_to(B, (len(logws),) + B.shape)) + D[None]
    sv = np.linalg.svd(G, compute_uv=False)[:, 0]
    best = max(float(np.linalg.svd(C @ np.linalg.solve(-A, B) + D, compute_uv=False)[0]),
               float(sv.max()))
    step = logws[1] - logws[0]
    for i in np.argsort(sv)[-3:]:
        res = scipy.optimize.minimize_scalar(
            lambda v: -sigma(v), bounds=(logws[i] - step, logws[i] + step),
            method="bounded", options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def check_certificate(A, B, Bw, C, K, gamma: float) -> list[str]:
    """||T_zw||_inf < gamma for the loop closed by K, z = [C x; -K x].

    The margin allowed above gamma is the relative accuracy of K that the
    Riccati condition estimate at gamma permits.
    """
    K = np.asarray(K, dtype=float)
    Cz = np.vstack([C, -K])
    peak = grid_norm(A - B @ K, Bw, Cz, np.zeros((Cz.shape[0], Bw.shape[1])))
    _, kappa = riccati_conditioned(A, B, Bw, C, gamma)
    if not peak < gamma * (1.0 + conditioned_rtol(kappa) - 1e-9):
        return [f"certificate fails: ||T_zw|| = {peak!r}, gamma = {gamma!r}"], peak
    return [], peak


def check_norm(value: float, reference: float, tol: float) -> list[str]:
    if not abs(value - reference) <= tol * reference:
        return [f"hinf_norm {value!r} vs reference {reference!r} "
                f"(relative {abs(value - reference) / reference:.3g} > tol {tol:g})"]
    return []


def second_order_peak(zeta: float) -> float:
    """Analytic H-infinity norm of wn^2 / (s^2 + 2 zeta wn s + wn^2), zeta < 1/sqrt(2)."""
    return 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta * zeta))
