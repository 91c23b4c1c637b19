"""Pitch-channel dynamics of the launch vehicle.

The plant is the tracking-error form of the longitudinal (pitch) channel:
with commanded pitch rate q_c and tracking error e = q_c - q, the augmented
state is

    x = [int_e, e, v_z]

and the dynamics are

    dx/dt = A x + B u + B_w w + f(t)

The terms are written once, in `pitch_terms`: A and B from the seven Z/M
coefficients, f from q_c, dq_c/dt and the integral of q_c.  Synthesis
evaluates them at one snapshot (`assemble_pitch_plant`), the simulator at
the stage times of each step.  The coefficients vary with flight time; two
anchor snapshots (t = 60 s and t = 100 s) ship as defaults with linear
interpolation between them (`CoefficientSchedule.at`).  All angular
quantities are radians internally; degrees appear only at the CLI boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

__all__ = [
    "DynamicCoefficients",
    "CoefficientSchedule",
    "CommandProfile",
    "PlantModel",
    "PITCH_COEFFS_T60",
    "PITCH_COEFFS_T100",
    "default_schedule",
    "default_command_profile",
    "coefficients_at",
    "assemble_pitch_plant",
    "pitch_terms",
    "load_coefficient_schedule",
    "load_command_profile",
]


@dataclass(frozen=True)
class DynamicCoefficients:
    """The seven pitch-channel coefficients at one instant of flight."""

    Z_v: float
    Z_q: float
    Z_theta: float
    Z_delta: float
    M_v: float
    M_q: float
    M_delta: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"coefficient {f.name} is not finite: {value}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])


# Coefficient snapshots of the reference vehicle at 60 s and 100 s of flight.
PITCH_COEFFS_T60 = DynamicCoefficients(
    Z_v=-0.054252,
    Z_q=608.84,
    Z_theta=-6.4939,
    Z_delta=-3.4855,
    M_v=-0.003439,
    M_q=-0.18404,
    M_delta=-1.9594,
)
PITCH_COEFFS_T100 = DynamicCoefficients(
    Z_v=-0.0020551,
    Z_q=1827.8,
    Z_theta=-6.4939,
    Z_delta=-6.2007,
    M_v=0.0002725,
    M_q=-0.014108,
    M_delta=-2.1086,
)


def _check_times(times) -> None:
    """Breakpoint times must be finite, then strictly increasing."""
    if not all(math.isfinite(t) for t in times):
        raise ValueError("breakpoint times must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("breakpoint times must be strictly increasing")


@dataclass(frozen=True)
class CoefficientSchedule:
    """Breakpointed coefficient history; linear between anchors, clamped outside."""

    breakpoints: tuple[tuple[float, DynamicCoefficients], ...]

    def __post_init__(self):
        bps = tuple((float(t), c) for t, c in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ValueError("schedule needs at least one breakpoint")
        times = [t for t, _ in bps]
        _check_times(times)
        object.__setattr__(self, "_ts", np.array(times))
        object.__setattr__(self, "_columns", np.array([c.as_array() for _, c in bps]).T)

    def at(self, t) -> np.ndarray:
        """Rows of the 7 coefficients at the times t, shape t.shape + (7,)."""
        return np.moveaxis(np.array([np.interp(t, self._ts, col) for col in self._columns]), 0, -1)


def default_schedule() -> CoefficientSchedule:
    """Two-anchor schedule through the shipped 60 s and 100 s snapshots."""
    return CoefficientSchedule(((60.0, PITCH_COEFFS_T60), (100.0, PITCH_COEFFS_T100)))


def coefficients_at(schedule: CoefficientSchedule, t: float) -> DynamicCoefficients:
    """The schedule's coefficients at one time (`CoefficientSchedule.at`)."""
    return DynamicCoefficients(*schedule.at(t).tolist())


@dataclass(frozen=True)
class CommandProfile:
    """Piecewise-linear commanded pitch-rate profile q_c(t).

    Clamped to the end values outside the breakpoint range.  The running
    integral from time zero is accumulated in closed form (exact trapezoids
    over the linear segments), never by numerical quadrature.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(t), float(q)) for t, q in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ValueError("command profile needs at least one breakpoint")
        times = [t for t, _ in bps]
        _check_times(times)
        if not all(math.isfinite(q) for _, q in bps):
            raise ValueError("command values must be finite")
        ts = np.array(times)
        qs = np.array([q for _, q in bps])
        # Integral of the clamped profile from the first breakpoint onward.
        seg = 0.5 * (qs[1:] + qs[:-1]) * np.diff(ts)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_qs", qs)
        object.__setattr__(self, "_cum", cum)
        if len(ts) > 1:  # rate_integral's offset; one breakpoint needs none
            object.__setattr__(self, "_from_first_at_zero", self._integral_from_first(0.0))

    def rate(self, t) -> float | np.ndarray:
        """q_c at time t (scalar or array)."""
        out = np.interp(t, self._ts, self._qs)
        return float(out) if np.isscalar(t) else out

    def rate_derivative(self, t) -> float | np.ndarray:
        """Slope of the active segment; zero outside the breakpoint range.

        Right-continuous at interior breakpoints.
        """
        ts, qs = self._ts, self._qs
        if len(ts) == 1:
            out = np.zeros_like(np.asarray(t, dtype=float))
            return float(out) if np.isscalar(t) else out
        idx = np.searchsorted(ts, t, side="right") - 1
        idx = np.clip(idx, 0, len(ts) - 2)
        slopes = (qs[idx + 1] - qs[idx]) / (ts[idx + 1] - ts[idx])
        inside = (np.asarray(t) >= ts[0]) & (np.asarray(t) < ts[-1])
        out = np.where(inside, slopes, 0.0)
        return float(out) if np.isscalar(t) else out

    def rate_integral(self, t) -> float | np.ndarray:
        """Exact running integral of q_c from time 0 to t."""
        ts, qs = self._ts, self._qs
        if len(ts) == 1:
            out = qs[0] * np.asarray(t, dtype=float)
        else:
            out = self._integral_from_first(t) - self._from_first_at_zero
        return float(out) if np.isscalar(t) else out

    def _integral_from_first(self, t) -> np.ndarray:
        """Integral of the clamped profile from the first breakpoint to t."""
        ts, qs, cum = self._ts, self._qs, self._cum
        t_arr = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(ts, t_arr, side="right") - 1, 0, len(ts) - 2)
        t0, t1 = ts[idx], ts[idx + 1]
        q0, q1 = qs[idx], qs[idx + 1]
        tau = np.clip(t_arr, t0, t1) - t0
        q_at = q0 + (q1 - q0) * tau / (t1 - t0)
        inner = cum[idx] + 0.5 * (q0 + q_at) * tau
        below = np.where(t_arr < ts[0], qs[0] * (t_arr - ts[0]), 0.0)
        above = np.where(t_arr > ts[-1], qs[-1] * (t_arr - ts[-1]), 0.0)
        return inner + below + above


def default_command_profile() -> CommandProfile:
    """Placeholder pitch-over shape: ramp to -0.015 rad/s, hold, ramp back to zero.

    A stand-in with a gravity-turn flavour; user-overridable and never
    treated as ground truth.
    """
    return CommandProfile(
        ((0.0, 0.0), (2.0, 0.0), (12.0, -0.015), (60.0, -0.015), (80.0, 0.0))
    )


@dataclass(frozen=True)
class PlantModel:
    """Matrices of the augmented tracking plant, state ordered [int_e, e, v_z].

    C_meas (read-only) is the measured output: the gyro senses q, giving e.
    """

    A: np.ndarray
    B: np.ndarray
    B_w: np.ndarray
    C_meas: ClassVar[np.ndarray] = np.array([[0.0, 1.0, 0.0]])


# w1 enters the v_z row, w2 the e row, at every flight time.
_B_W = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
_B_W.flags.writeable = PlantModel.C_meas.flags.writeable = False


def pitch_terms(rows, qc=0.0, dqc=0.0, iqc=0.0):
    """(A, B, B_w, f) of the plant over coefficient rows of any leading shape.

    `rows` holds the seven coefficients in DynamicCoefficients field order
    along its last axis; qc, dqc and iqc are q_c, dq_c/dt and the integral
    of q_c, broadcast against the leading shape.  Returns A (..., 3, 3),
    B (..., 3), the constant B_w (3, 2) and f (..., 3).
    """
    rows = np.asarray(rows)
    Z_v, Z_q, Z_theta, Z_delta, M_v, M_q, M_delta = (rows[..., j] for j in range(7))
    shape = np.shape(Z_v)
    A = np.zeros(shape + (3, 3))
    A[..., 0, 1] = 1.0
    A[..., 1, 1] = M_q
    A[..., 1, 2] = -M_v
    A[..., 2, 0] = -Z_theta
    A[..., 2, 1] = -Z_q
    A[..., 2, 2] = Z_v
    B = np.zeros(shape + (3,))
    B[..., 1] = -M_delta
    B[..., 2] = Z_delta
    f = np.zeros(shape + (3,))
    f[..., 1] = dqc - M_q * qc
    f[..., 2] = Z_q * qc + Z_theta * iqc
    return A, B, _B_W, f


def assemble_pitch_plant(coeffs: DynamicCoefficients) -> PlantModel:
    """(A, B, B_w) of one coefficient snapshot, B as a column."""
    A, B, B_w, _ = pitch_terms(coeffs.as_array())
    return PlantModel(A=A, B=B.reshape(3, 1), B_w=B_w)


_SCHEDULE_HEADER = ["t", "Zv", "Zq", "Ztheta", "Zdelta", "Mv", "Mq", "Mdelta"]
_PROFILE_HEADER = ["t", "qc_deg_per_s"]


def load_coefficient_schedule(path) -> CoefficientSchedule:
    """Read a schedule CSV with header t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta."""
    rows = _read_csv(path, _SCHEDULE_HEADER)
    breakpoints = [
        (row[0], DynamicCoefficients(*row[1:8])) for row in rows
    ]
    return CoefficientSchedule(tuple(breakpoints))


def load_command_profile(path) -> CommandProfile:
    """Read a command CSV with header t,qc_deg_per_s; values convert to rad/s."""
    rows = _read_csv(path, _PROFILE_HEADER)
    return CommandProfile(tuple((t, math.radians(q)) for t, q in rows))


def _read_csv(path, expected_header: list[str]) -> list[list[float]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise ValueError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ValueError(f"{path}:{lineno}: expected {len(expected_header)} columns")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows
