"""Pitch-channel dynamics of the launch vehicle.

The plant is the tracking-error form of the longitudinal (pitch) channel:
with commanded pitch rate q_c and tracking error e = q_c - q, the augmented
state is

    x = [int_e, e, v_z]

and the dynamics are

    dx/dt = A x + B u + B_w w + f(t)

    A = [[0,       1,    0  ],         B = [0, -M_delta, Z_delta]'
         [0,       M_q,  -M_v],        B_w = [[0, 0], [0, 1], [1, 0]]
         [-Z_theta, -Z_q, Z_v]]

    f(t) = [0,
            dq_c/dt - M_q q_c,
            Z_q q_c + Z_theta * int_0^t q_c]

The seven Z/M coefficients vary with flight time; two anchor snapshots
(t = 60 s and t = 100 s) ship as defaults with linear interpolation between
them.  All angular quantities are radians internally; degrees appear only
at the CLI boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

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

_COEFF_NAMES = tuple(f.name for f in fields(DynamicCoefficients))


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
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.breakpoints])

    def table(self) -> np.ndarray:
        """Coefficient values stacked as (n_breakpoints, 7)."""
        return np.array([c.as_array() for _, c in self.breakpoints])


def default_schedule() -> CoefficientSchedule:
    """Two-anchor schedule through the shipped 60 s and 100 s snapshots."""
    return CoefficientSchedule(((60.0, PITCH_COEFFS_T60), (100.0, PITCH_COEFFS_T100)))


def coefficients_at(schedule: CoefficientSchedule, t: float) -> DynamicCoefficients:
    """Interpolate each coefficient independently; clamp outside the range."""
    times = schedule.times
    table = schedule.table()
    values = [float(np.interp(t, times, table[:, j])) for j in range(table.shape[1])]
    return DynamicCoefficients(*values)


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
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
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
            out = self._integral_from_first(t) - self._integral_from_first(0.0)
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
    """Matrices of the augmented tracking plant, state ordered [int_e, e, v_z]."""

    A: np.ndarray
    B: np.ndarray
    B_w: np.ndarray
    C_meas: np.ndarray


def assemble_pitch_plant(coeffs: DynamicCoefficients) -> PlantModel:
    """Build (A, B, B_w, C_meas) from one coefficient snapshot."""
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, coeffs.M_q, -coeffs.M_v],
            [-coeffs.Z_theta, -coeffs.Z_q, coeffs.Z_v],
        ]
    )
    B = np.array([[0.0], [-coeffs.M_delta], [coeffs.Z_delta]])
    B_w = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    C_meas = np.array([[0.0, 1.0, 0.0]])
    return PlantModel(A=A, B=B, B_w=B_w, C_meas=C_meas)


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
