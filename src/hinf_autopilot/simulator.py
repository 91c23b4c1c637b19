"""Closed-loop simulation: plant, frozen gain, servo, gyro, disturbances.

Update ordering within one step of size dt, all signals sampled at the step
start t_k and held (zero-order hold) across the step:

    1. evaluate command, coefficients, and disturbance at t_k;
    2. form the controller's feedback vector [int_e, e, v_z]; the e channel
       comes from the true state or from the gyro output, per the scenario;
    3. u = -K x (deflection command);
    4. the servo advances one step driven by u; the achieved deflection is
       the plant's control input for this step;
    5. the plant advances one classical RK4 step (coefficients and command
       forcing evaluated at the stage times; u and w held constant);
    6. the gyro advances one RK4 step driven by the true rate at t_k.

The trace records every sample; a non-finite state aborts the run with the
failure time (and, from `simulate`, the partial trace) attached to the error.

The plant is vehicle_model's: the precompute interpolates the coefficient
schedule at the step nodes and midpoints, evaluates `pitch_terms` there (a
frozen plant is a one-breakpoint schedule), and folds the four RK4 stages
into one affine map per step (an algebraically identical regrouping,
batched with numpy) so that full-length runs at dt = 2e-4 stay fast in pure
Python.  The run goes in chunks of _STEP_CHUNK (2048) steps through one
chunk loop, `_chunk_loop`: each chunk's precompute and disturbance samples
are built, stepped through and written into the columns its caller gives
before the next.  Each chunk's step table is converted once to Python rows.
A chunk whose plant inputs (the coefficient rows, q_c, dq_c/dt and the
integral of q_c on its half-step grid) have the same bits as the previous
chunk's steps through the previous chunk's rows: the table is a pure
function of those inputs, so the trace is the same.

`simulate` gives the loop views of the whole trace, and compute_metrics
then sums it in blocks of 32768 steps.  Its peak memory is the trace (88
bytes a step) and one chunk of about 3 MB: under tracemalloc, a 20 k-step
paper-ltv run peaks 3.0 MB above its 1.76 MB trace.  `simulate_to_csv`,
the CLI's path, gives it the slots of a ring in shared memory instead,
which `_fan_out`'s forked workers format into CSV text while the next slot
fills, and sums the metrics' blocks as the chunks come: it holds one
block of trapezoid terms (0.8 MB) and about 7 MB of rings with two
workers, never a full-length column.

Each disturbance primitive owns its formula, `values(t)`, which
`sample_grid` sums per channel.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .actuators_sensors import (
    GYRO_DAMPING_TERM,
    GYRO_NATURAL_FREQ,
    SERVO_RATE_LIMIT,
    SERVO_TIME_CONSTANT,
)
from .care_solver import IndefiniteSolution, NoStabilizingSolution
from .controller import (
    ClosedLoopUnstable,
    DesignPoint,
    design_point_t60,
    design_point_t100,
    synthesize,
)
from .vehicle_model import (
    CoefficientSchedule,
    CommandProfile,
    default_command_profile,
    default_schedule,
    pitch_terms,
)

__all__ = [
    "Step",
    "Sine",
    "Ramp",
    "Noise",
    "DisturbanceSpec",
    "Scenario",
    "SimulationTrace",
    "Metrics",
    "SynthesisFailed",
    "NonFiniteState",
    "simulate",
    "simulate_to_csv",
    "compute_metrics",
    "default_disturbance",
    "scenario_paper_ltv",
    "scenario_paper_lti",
    "BUILTIN_SCENARIOS",
    "metrics_to_dict",
]

#: Default integration step (s); resolves the gyro comfortably inside RK4's
#: accuracy region (omega_n * dt ~ 0.05).
DEFAULT_DT = 2e-4

#: Hard cap on the step; Scenario refuses larger ones (the gyro's RK4 stability).
MAX_DT = 1e-3

#: Cap on a run's step count; Scenario refuses more, before anything is
#: allocated.  The trace `simulate` returns takes 88 bytes a step, so 8.8 GB
#: at the cap.
MAX_STEPS = 10**8


class SynthesisFailed(RuntimeError):
    """Controller synthesis for the scenario's design point failed."""


class NonFiniteState(RuntimeError):
    """The simulation produced a non-finite sample (divergence).

    Attributes:
        time: first time at which a non-finite value appeared.
        trace: partial trace up to the last finite sample; None from
            `simulate_to_csv`, which holds no whole trace.
    """

    def __init__(self, time: float, trace: "SimulationTrace | None"):
        super().__init__(f"state became non-finite at t={time:.6g} s")
        self.time = time
        self.trace = trace

    def __reduce__(self):
        # Rebuilt from both arguments, so it crosses a process boundary.
        return NonFiniteState, (self.time, self.trace)


# ---------------------------------------------------------------------------
# Disturbance primitives


@dataclass(frozen=True)
class Step:
    """amplitude for t >= t0, zero before (closed left endpoint)."""

    t0: float
    amplitude: float

    def values(self, t: np.ndarray) -> np.ndarray:
        return np.where(t >= self.t0, self.amplitude, 0.0)


@dataclass(frozen=True)
class Sine:
    """amplitude * sin(frequency * t + phase); frequency in rad/s."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(self.frequency * t + self.phase)


@dataclass(frozen=True)
class Ramp:
    """slope * (t - t0) for t >= t0, zero before."""

    t0: float
    slope: float

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.slope * np.maximum(t - self.t0, 0.0)


@dataclass(frozen=True)
class Noise:
    """Seeded uniform noise in [-amplitude, amplitude], held over `hold` s.

    The sample for time t is the floor(t / hold)-th draw of the seeded
    stream, so identical seeds reproduce identical paths regardless of
    query order.  `hold` should match the integration step of the run the
    spec is used in; a Scenario refuses a hold below a tenth of its step.
    """

    amplitude: float
    seed: int
    hold: float = DEFAULT_DT

    def __post_init__(self):
        if not self.hold > 0.0:
            raise ValueError("hold must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")

    def values(self, t: np.ndarray) -> np.ndarray:
        idx = np.maximum(np.floor(t / self.hold + 1e-9).astype(int), 0)
        if idx.size == 0:
            return np.zeros(idx.shape)
        first = int(idx.min())
        # Each uniform draw consumes one step of the generator, so advancing
        # by `first` skips exactly the draws before the window.
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.advance(first)
        samples = rng.uniform(-1.0, 1.0, int(idx.max()) - first + 1)
        return self.amplitude * samples[idx - first]


@dataclass(frozen=True)
class DisturbanceSpec:
    """Two-channel exogenous disturbance, each a sum of primitives.

    Channel 1 enters the normal-velocity equation, channel 2 the
    tracking-error-rate equation (the columns of B_w).
    """

    channel1: tuple = ()
    channel2: tuple = ()

    def __post_init__(self):
        # Tuples, so a Scenario's checks of the primitives stay true.
        object.__setattr__(self, "channel1", tuple(self.channel1))
        object.__setattr__(self, "channel2", tuple(self.channel2))

    def sample_grid(self, t: np.ndarray) -> np.ndarray:
        """(len(t), 2) array of channel values: the sum of each primitive's `values(t)`."""
        t = np.asarray(t, dtype=float)
        out = np.zeros((t.size, 2))
        for j, prims in enumerate((self.channel1, self.channel2)):
            for prim in prims:
                out[:, j] += prim.values(t)
        return out


def default_disturbance() -> DisturbanceSpec:
    """Placeholder disturbance: 2 rad/s sine on channel 1, step at 90 s on channel 2.

    Stands in for the unreadable published profiles; never ground truth.
    """
    return DisturbanceSpec(
        channel1=(Sine(amplitude=0.02, frequency=2.0),),
        channel2=(Step(t0=90.0, amplitude=0.05),),
    )


# ---------------------------------------------------------------------------
# Scenario and outputs


@dataclass(frozen=True)
class Scenario:
    """Everything simulate needs: plant schedule, command, disturbances, design.

    The servo parameters default to the physical actuator; setting
    servo_tau equal to dt (with a non-binding rate limit) turns the
    actuator into a pure one-step hold of the commanded deflection, the
    reference mode used by the linear-consistency checks.  A scenario is
    frozen, so its fields are checked once; dataclasses.replace makes a
    changed copy and checks it again.

    The checks resolve the run into two attributes that are not fields:
    `n_steps` (at most MAX_STEPS) and `plant_schedule`, which is `schedule`
    for "ltv" and the design point's one-breakpoint schedule for "lti_frozen".
    """

    design: DesignPoint
    schedule: CoefficientSchedule = field(default_factory=default_schedule)
    profile: CommandProfile = field(default_factory=default_command_profile)
    disturbances: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    t_span: tuple[float, float] = (60.0, 160.0)
    dt: float = DEFAULT_DT
    feedback_source: str = "gyro_rate"
    plant_mode: str = "ltv"
    servo_tau: float = SERVO_TIME_CONSTANT
    servo_rate_limit: float = SERVO_RATE_LIMIT

    def __post_init__(self):
        try:
            t0, tf = map(float, self.t_span)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"t_span must be a pair (t0, tf), got {self.t_span!r}") from None
        if not (t0 < tf and math.isfinite(tf - t0)):
            raise ValueError(f"t_span must be finite with t0 < tf, got ({t0}, {tf})")
        dt = float(self.dt)
        if not 0.0 < dt <= MAX_DT:
            raise ValueError(f"dt must be in (0, {MAX_DT}], got {dt}")
        steps = (tf - t0) / dt
        if not steps <= MAX_STEPS:
            raise ValueError(f"t_span ({t0}, {tf}) is {steps:.6g} steps of dt = {dt}; "
                             f"a run takes at most {MAX_STEPS:.0e}")
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise ValueError(
                f"t_span ({t0}, {tf}) is {steps:.6g} steps of dt = {dt}; "
                "it must be a whole number of steps"
            )
        object.__setattr__(self, "t_span", (t0, tf))
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "n_steps", round(steps))
        if self.feedback_source not in ("true_state", "gyro_rate"):
            raise ValueError(f"unknown feedback_source {self.feedback_source!r}")
        if self.plant_mode == "lti_frozen":  # the plant is the design point's
            frozen = ((self.design.t_design, self.design.coeffs),)
            object.__setattr__(self, "plant_schedule", CoefficientSchedule(frozen))
        elif self.plant_mode == "ltv":
            object.__setattr__(self, "plant_schedule", self.schedule)
        else:
            raise ValueError(f"unknown plant_mode {self.plant_mode!r}")
        if not (self.servo_tau > 0.0 and self.servo_rate_limit > 0.0):
            raise ValueError("servo parameters must be positive")
        # A noise sample window holds every draw from its first index to its
        # last, so draws per step are capped to keep it below the trace's size.
        for prim in (*self.disturbances.channel1, *self.disturbances.channel2):
            if isinstance(prim, Noise) and prim.hold < dt / 10:
                raise ValueError(f"noise hold must be at least dt / 10 = {dt / 10:g}, "
                                 f"got {prim.hold:g}")


def scenario_paper_ltv(**overrides) -> Scenario:
    """Time-varying-plant run with the 100 s design point (gamma = 7.8)."""
    base = dict(
        design=design_point_t100(),
        disturbances=default_disturbance(),
        t_span=(60.0, 160.0),
        plant_mode="ltv",
    )
    base.update(overrides)
    return Scenario(**base)


def scenario_paper_lti(**overrides) -> Scenario:
    """Frozen-plant run at the 60 s design point (gamma = 20)."""
    base = dict(
        design=design_point_t60(),
        disturbances=default_disturbance(),
        t_span=(60.0, 160.0),
        plant_mode="lti_frozen",
    )
    base.update(overrides)
    return Scenario(**base)


BUILTIN_SCENARIOS = {
    "paper-ltv": scenario_paper_ltv,
    "paper-lti": scenario_paper_lti,
}


@dataclass
class SimulationTrace:
    """Uniformly sampled closed-loop history."""

    t: np.ndarray
    x: np.ndarray  # (N+1, 3): [int_e, e, v_z]
    theta: np.ndarray
    q: np.ndarray
    delta: np.ndarray
    u: np.ndarray
    w: np.ndarray  # (N+1, 2)
    q_meas: np.ndarray


@dataclass
class Metrics:
    """Scalar summaries of one run."""

    rms_e: float
    max_abs_e: float
    rms_theta_err: float
    max_abs_delta: float
    servo_saturation_fraction: float
    energy_ratio: float


def metrics_to_dict(metrics: Metrics) -> dict:
    return asdict(metrics)


# ---------------------------------------------------------------------------
# Integration

#: Steps precomputed, integrated and recorded together; bounds the
#: precompute and its Python rows alive at once to about 3 MB, whatever the
#: length of the run.  At 4096 steps the dispersion benchmark peaks about
#: 4 MB higher for no less CPU; at 1024 about 2 MB lower, for about 5 % more CPU.
_STEP_CHUNK = 2048


def _stage_grids(scenario: Scenario, first: int, last: int):
    """Command and plant inputs of steps first..last-1 on the half-step grid.

    The grid is the 2 (last - first) + 1 points from t0 + dt first to
    t0 + dt last.  Returns the inputs of `_step_updates` on the grid: the
    coefficient rows, q_c, dq_c/dt and the integral of q_c.
    """
    t0, _ = scenario.t_span
    dt = scenario.dt
    th = t0 + 0.5 * dt * np.arange(2 * first, 2 * last + 1)

    profile = scenario.profile
    qc = np.asarray(profile.rate(th), dtype=float)
    dqc = np.asarray(profile.rate_derivative(th), dtype=float)
    iqc = np.asarray(profile.rate_integral(th), dtype=float)
    return scenario.plant_schedule.at(th), qc, dqc, iqc


def _step_updates(dt: float, grid) -> np.ndarray:
    """Per-step update data of the plant terms, flattened to (N, 21).

    `grid` is `_stage_grids`' (rows, q_c, dq_c, integral of q_c) on the
    half-step grid; the `pitch_terms` at its even points are the plant at
    the N + 1 step nodes, at its odd points at the N midpoints.  Columns:
    the 3x3 state propagator M (row-major, 9), the control column N_u (3),
    the disturbance propagator P (3x2 row-major, 6), and the forcing
    contribution q_f (3).  One step is then
    x+ = M x + N_u * delta + P w + q_f, identical to the classical RK4
    stages with the plant evaluated at the stage times and (u, w) held.
    """
    rows, qc, dqc, iqc = grid
    nodes, mids = (
        pitch_terms(rows[sl], qc[sl], dqc[sl], iqc[sl])
        for sl in (slice(0, None, 2), slice(1, None, 2))
    )
    A_nodes, B_nodes, B_w, f_nodes = nodes
    A2, B2, _, f2 = mids
    # Stage 1 at the step start, stages 2 and 3 at the midpoint, stage 4 at the end.
    A1, A3 = A_nodes[:-1], A_nodes[1:]
    n_steps = len(A2)
    half = 0.5 * dt
    sixth = dt / 6.0

    # The stages L1 = A1, L2 = A2 + half A2 L1, L3 = A2 + half A2 L2 and
    # L4 = A3 + dt A3 L3, and M = I + sixth (L1 + 2 L2 + 2 L3 + L4), built
    # in place: IEEE + and * commute exactly and 2.0 * is exact, so the
    # bits are the textbook expressions', without their temporaries.
    L2 = _scaled_plus(np.matmul(A2, A1), half, A2)
    L3 = _scaled_plus(np.matmul(A2, L2), half, A2)
    L4 = _scaled_plus(np.matmul(A3, L3), dt, A3)
    M = _fold(A1, L2, L3, L4, sixth)
    M += np.eye(3)
    L3 = L4 = None

    def input_propagator(c_nodes, c2):
        n1 = c_nodes[:-1]
        n2 = _scaled_plus(_matvec(A2, n1), half, c2)
        n3 = _scaled_plus(_matvec(A2, n2), half, c2)
        n4 = _scaled_plus(_matvec(A3, n3), dt, c_nodes[1:])
        return _fold(n1, n2, n3, n4, sixth)

    out = np.empty((n_steps, 21))
    out[:, 0:9] = M.reshape(n_steps, 9)
    out[:, 9:12] = input_propagator(B_nodes, B2)
    for j in range(2):
        column = np.broadcast_to(B_w[:, j], (n_steps + 1, 3))
        out[:, 12 + j:18:2] = input_propagator(column, column[:-1])
    out[:, 18:21] = input_propagator(f_nodes, f2)
    return out


def _scaled_plus(product: np.ndarray, h: float, c) -> np.ndarray:
    """h * product + c, bit for bit, built in `product`."""
    product *= h
    product += c
    return product


def _fold(k1, k2, k3, k4, sixth: float) -> np.ndarray:
    """sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), bit for bit, built in k2 (k3 is doubled)."""
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= sixth
    return k2


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Batched (m,3,3) @ (m,3)."""
    return np.einsum("kij,kj->ki", mats, vecs)


def _same_bits(a: tuple, b: tuple) -> bool:
    """Whether two tuples of float64 arrays have equal shapes and bits (-0.0 != 0.0)."""
    return all(
        x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in zip(a, b)
    )


def _chunk_loop(scenario: Scenario, views):
    """Synthesize the gain and step the loop, writing each chunk's rows into `views(first, end)`.

    `views(first, end)` gives the 11 writable float64 columns of rows
    first..end-1 in the CSV's order.  Yields (rows written, divergence time
    or None) once per chunk; a chunk whose state became non-finite is the last.
    """
    try:
        _, gain = synthesize(scenario.design)
    except (NoStabilizingSolution, IndefiniteSolution, ClosedLoopUnstable) as exc:
        raise SynthesisFailed(f"design-point synthesis failed: {exc}") from exc

    t0, _ = scenario.t_span
    dt = scenario.dt
    n_steps = scenario.n_steps

    k0, k1g, k2g = (float(v) for v in gain.K[0])
    use_gyro = scenario.feedback_source == "gyro_rate"

    tau = scenario.servo_tau
    rlim = scenario.servo_rate_limit
    wn2 = GYRO_NATURAL_FREQ * GYRO_NATURAL_FREQ
    damp = GYRO_DAMPING_TERM
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite

    x0 = x1 = x2 = 0.0
    delta = 0.0
    g1 = scenario.profile.rate(t0)  # gyro pre-settled on the initial true rate
    g2 = 0.0
    diverged_at = None
    grid = steps = None
    for first in range(0, n_steps, _STEP_CHUNK):
        last = min(first + _STEP_CHUNK, n_steps)
        end = last + 1 if last == n_steps else last  # the last chunk has tf
        t, x0_out, x1_out, x2_out, theta, q, delta_out, u_out, w1_out, w2_out, q_meas = views(
            first, end)
        # With the bits of t0 + dt * np.arange(n_steps + 1), made in place.
        np.multiply(np.arange(first, end, dtype=float), dt, out=t)
        t += t0
        chunk_grid = _stage_grids(scenario, first, last)
        # An overflow in the step table or a draw makes the state non-finite,
        # which the loop detects; a draw at tf reaches only the trace.
        with np.errstate(over="ignore", invalid="ignore"):
            if grid is None or not _same_bits(chunk_grid, grid):
                grid = steps = rows = None  # the old table goes before the new one is built
                steps = _step_updates(dt, chunk_grid).tolist()
            # Each primitive is elementwise in t (noise draws by index), so
            # sampling per chunk gives the whole-run bits.
            w = scenario.disturbances.sample_grid(t)
        grid, chunk_grid = chunk_grid, None
        _, qc, _, iqc = grid
        qc_nodes = qc[::2].tolist()
        w1_out[:], w2_out[:] = w[:, 0], w[:, 1]
        w1_nodes, w2_nodes = w[:, 0].tolist(), w[:, 1].tolist()
        rec = ([], [], [], [], [], [])
        rec_x0, rec_x1, rec_x2, rec_delta, rec_u, rec_qmeas = (r.append for r in rec)

        # The last chunk also records tf, through a step past it on a repeated row.
        rows = steps if end == last else [*steps, steps[-1]]
        for row, qc_k, w1, w2 in zip(rows, qc_nodes, w1_nodes, w2_nodes):
            e_ch = (qc_k - g1) if use_gyro else x1
            u = -(k0 * x0 + k1g * e_ch + k2g * x2)

            rate = (u - delta) / tau
            if rate > rlim:
                rate = rlim
            elif rate < -rlim:
                rate = -rlim
            delta_new = delta + rate * dt

            rec_x0(x0)
            rec_x1(x1)
            rec_x2(x2)
            rec_delta(delta)
            rec_u(u)
            rec_qmeas(g1)

            (
                m00, m01, m02, m10, m11, m12, m20, m21, m22,
                n0, n1, n2,
                p00, p01, p10, p11, p20, p21,
                q0, q1, q2,
            ) = row
            nx0 = m00 * x0 + m01 * x1 + m02 * x2 + n0 * delta_new + p00 * w1 + p01 * w2 + q0
            nx1 = m10 * x0 + m11 * x1 + m12 * x2 + n1 * delta_new + p10 * w1 + p11 * w2 + q1
            nx2 = m20 * x0 + m21 * x1 + m22 * x2 + n2 * delta_new + p20 * w1 + p21 * w2 + q2

            # Gyro RK4 on the true rate at t_k (arithmetic of conftest's integrate_reference_gyro).
            qin = qc_k - x1
            ka1 = g2
            ka2 = wn2 * (qin - g1) - damp * g2
            y1 = g1 + half * ka1
            y2 = g2 + half * ka2
            kb1 = y2
            kb2 = wn2 * (qin - y1) - damp * y2
            y1 = g1 + half * kb1
            y2 = g2 + half * kb2
            kc1 = y2
            kc2 = wn2 * (qin - y1) - damp * y2
            y1 = g1 + dt * kc1
            y2 = g2 + dt * kc2
            kd1 = y2
            kd2 = wn2 * (qin - y1) - damp * y2
            g1 = g1 + sixth * (ka1 + 2.0 * (kb1 + kc1) + kd1)
            g2 = g2 + sixth * (ka2 + 2.0 * (kb2 + kc2) + kd2)

            x0, x1, x2 = nx0, nx1, nx2
            delta = delta_new

            if not isfinite(x0 + x1 + x2 + delta + g1 + g2):
                diverged_at = t0 + (first + len(rec[0])) * dt
                break

        n_rows = len(rec[0])
        if first + n_rows > n_steps:  # the step past tf is not the run's
            diverged_at = None
        for out, values in zip((x0_out, x1_out, x2_out, delta_out, u_out, q_meas), rec):
            out[:n_rows] = values
        theta[:n_rows] = iqc[: 2 * n_rows : 2] - x0_out[:n_rows]
        q[:n_rows] = qc[: 2 * n_rows : 2] - x1_out[:n_rows]
        yield n_rows, diverged_at
        if diverged_at is not None:
            return


def simulate(scenario: Scenario) -> tuple[SimulationTrace, Metrics]:
    """Run the closed loop over the scenario's span.

    Deterministic for a given scenario, including seeded noise.  Raises
    SynthesisFailed if the design point cannot be synthesized, and
    NonFiniteState (with the partial trace attached) if the state diverges.
    """
    n_out = scenario.n_steps + 1
    x, w = np.empty((n_out, 3)), np.empty((n_out, 2))
    t, theta, q, delta, u, q_meas = (np.empty(n_out) for _ in range(6))
    cols = (t, x[:, 0], x[:, 1], x[:, 2], theta, q, delta, u, w[:, 0], w[:, 1], q_meas)
    rows = 0
    # The loop and its last chunk are gone before compute_metrics' blocks are made.
    for n_rows, diverged_at in _chunk_loop(scenario, lambda a, b: [col[a:b] for col in cols]):
        rows += n_rows
    sl = slice(0, rows)
    trace = SimulationTrace(
        t=t[sl], x=x[sl], theta=theta[sl], q=q[sl], delta=delta[sl], u=u[sl], w=w[sl],
        q_meas=q_meas[sl],
    )
    if diverged_at is not None:
        raise NonFiniteState(diverged_at, trace)
    return trace, compute_metrics(trace, scenario.servo_rate_limit)


#: Steps per block of the energy sums: a run's metrics hold one block of
#: trapezoid terms and a few of temporaries, whatever its length.
_METRIC_BLOCK = 1 << 15


def compute_metrics(trace: SimulationTrace, rate_limit: float = SERVO_RATE_LIMIT) -> Metrics:
    """Scalar summaries over one trace (trapezoid rule for the integrals).

    The attitude error theta - int q_c is -int_e (the first state), since
    theta = int q_c - int_e.  The servo saturation fraction counts steps
    whose deflection change hits the rate bound `rate_limit` (rad/s;
    `simulate` passes the scenario's servo_rate_limit); energy_ratio is the
    tracking-error output energy over the disturbance energy (zero when the
    run had no disturbance).

    Each energy is math.fsum of the np.sum of its trapezoid terms over each
    block of _METRIC_BLOCK (32768) steps from the first, so only one block
    of terms is held.  A run of at most one block has the bits of
    np.trapezoid over the whole column; a longer one is within about an ulp.
    """
    if len(trace.t) == 0:
        raise ValueError("compute_metrics needs at least one sample; the trace is empty")
    sums = _RunSums(rate_limit)
    sums.add(trace.t, trace.x[:, 0], trace.x[:, 1], trace.delta, trace.w[:, 0], trace.w[:, 1])
    return sums.metrics()


class _RunSums:
    """The Metrics of a run added in order, in pieces that start with the last row before.

    The energies of e, int_e and w1^2 + w2^2 are summed in blocks counted
    from the run's first step, so the pieces do not show; a blocked sum is at
    least as accurate as one pairwise sum (Higham, SIAM J. Sci. Comput. 14, 1993).
    """

    def __init__(self, rate_limit: float):
        self.rate_limit = rate_limit
        self.terms, self.filled, self.block_sums = np.empty((3, _METRIC_BLOCK)), 0, []
        self.t_first, self.saturated, self.max_abs_e, self.max_abs_delta = None, 0, 0.0, 0.0

    def add(self, t, int_e, e, delta, w1, w2) -> None:
        if self.t_first is None:
            self.t_first = t[0]
            self.max_step = self.rate_limit * (float(t[1] - t[0]) if len(t) > 1 else 1.0)
        self.t_last, last = t[-1], len(t) - 1
        ends = range(_METRIC_BLOCK - self.filled, last, _METRIC_BLOCK)  # rows ending a block
        for a, b in zip([0, *ends], [*ends, last]):
            rows = slice(a, b + 1)
            for terms, columns in zip(self.terms[:, self.filled:self.filled + b - a],
                                      ((e,), (int_e,), (w1, w2))):
                _energy_terms(t[rows], [column[rows] for column in columns], terms)
            self.saturated += int(np.count_nonzero(
                np.abs(np.diff(delta[rows])) >= self.max_step * (1.0 - 1e-9)))
            # np.maximum keeps a nan, as np.max does.
            self.max_abs_e = np.maximum(self.max_abs_e, np.abs(e[rows]).max())
            self.max_abs_delta = np.maximum(self.max_abs_delta, np.abs(delta[rows]).max())
            self.filled += b - a
            if self.filled == _METRIC_BLOCK:
                self.block_sums.append([float(row.sum()) for row in self.terms])
                self.filled = 0

    def metrics(self) -> Metrics:
        partial = [float(row.sum()) for row in self.terms[:, :self.filled]]
        e_energy, theta_energy, w_energy = map(_fsum, zip(*self.block_sums, partial))
        span = float(self.t_last - self.t_first)
        steps = len(self.block_sums) * _METRIC_BLOCK + self.filled
        return Metrics(
            rms_e=math.sqrt(e_energy / span) if span > 0 else 0.0,
            max_abs_e=float(self.max_abs_e),
            rms_theta_err=math.sqrt(theta_energy / span) if span > 0 else 0.0,
            max_abs_delta=float(self.max_abs_delta),
            # The count over the steps is the float mean of the step flags.
            servo_saturation_fraction=self.saturated / steps if steps else 0.0,
            energy_ratio=e_energy / w_energy if w_energy > 0.0 else 0.0,
        )


def _fsum(values) -> float:
    """math.fsum, or the float sum where the exact one is past a double or has inf - inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


def _energy_terms(t: np.ndarray, columns, out: np.ndarray) -> None:
    """The trapezoid terms over t of y, the sum of the columns' squares, into `out`.

    np.trapezoid(y, t) is (diff(t) * (y[1:] + y[:-1]) / 2.0).sum(), and
    x ** 2 is numpy's x * x: the np.sum of a run's terms has its bits.
    """
    y = columns[0] ** 2
    for column in columns[1:]:
        y += column ** 2
    np.add(y[1:], y[:-1], out=out)
    y = None  # freed before diff(t) is made
    out *= np.diff(t)
    out /= 2.0


_TRACE_HEADER = "t,int_e,e,vz,theta_rad,q_rad_s,delta_rad,u_rad,w1,w2,q_meas_rad_s"

#: Results each `_fan_out` worker may have in flight; bounds the text the writer holds.
_BLOCKS_PER_WORKER = 2

#: Chunks per slot of `simulate_to_csv`'s rings, so per `_fan_out` item: two
#: halve the items' fork-pool overhead in the parent for about 3 MB more than one.
_SLOT_CHUNKS = 2

#: The callable of `_fan_out`'s forked workers.  It is set before the
#: workers fork, so they inherit it and only items and results are pickled.
_fan_out_fn = None


def _format_block(cols) -> bytes:
    """CSV text of the rows of the columns: `repr` of each value, comma-joined."""
    fields = [map(repr, col.tolist()) for col in cols]
    lines = map(",".join, zip(*fields))
    return ("\n".join(lines) + "\n").encode("ascii")


def _worker_count() -> int:
    """CPUs this process may run on; 1 where forking is unavailable or unsafe.

    Forking a process that runs other threads can deadlock the child on a
    lock one of those threads held, so such a process works in process.
    """
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _call_fan_out_fn(item):
    return _fan_out_fn(item)


def _fan_out(fn, items, workers: int = 0):
    """Yield fn(item) for each item of the iterable `items`, in order.

    In process for fewer than two items or on one CPU; otherwise in
    `workers` (default `_worker_count()`) forked workers.  Items are taken
    lazily: when one is taken, at most `workers * _BLOCKS_PER_WORKER`
    earlier items are not yet yielded.  A worker's exception is raised here.
    """
    global _fan_out_fn
    items = iter(items)
    head = list(itertools.islice(items, 2))
    items = itertools.chain(head, items)
    workers = (workers or _worker_count()) if len(head) == 2 else 1
    if workers == 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _fan_out_fn = fn
    pending: deque = deque()
    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for item in items:
            if len(pending) == workers * _BLOCKS_PER_WORKER:
                yield pending.popleft().result()
            pending.append(executor.submit(_call_fan_out_fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
        _fan_out_fn = None


def simulate_to_csv(scenario: Scenario, handle) -> Metrics:
    """Run the scenario as `simulate` does, writing its trace CSV to the binary `handle`.

    The bytes and metrics are `simulate`'s, but the trace is never held:
    the chunks' rows go into the slots of a ring in shared memory, which
    `_fan_out`'s workers format into a text ring while the next slot fills.
    The metrics are compute_metrics', summed as the chunks come in the same
    fixed blocks of _METRIC_BLOCK steps, so they keep one block of terms and
    one sum a block: bitwise `simulate`'s, whatever the chunks, slots and
    workers, and within about an ulp of np.trapezoid over the whole column.
    Raises as `simulate` does, but the trace of a NonFiniteState is None.
    """
    workers = _worker_count()
    n_slots = workers * _BLOCKS_PER_WORKER + 1  # one more than _fan_out keeps in flight
    rows = _SLOT_CHUNKS * _STEP_CHUNK  # a slot's rows; the last slot also has tf
    # Row 0 of a slot is the previous slot's last row, for the metrics' first step.
    ring = np.frombuffer(mmap.mmap(-1, n_slots * 11 * (rows + 2) * 8)).reshape(n_slots, 11, -1)
    # A value's repr has at most 24 characters ("-1.2345678901234567e-308"), then a separator.
    text_size = 11 * 25 * (rows + 1)
    texts = mmap.mmap(-1, n_slots * text_size)
    sums = _RunSums(scenario.servo_rate_limit)

    def views(first: int, end: int):
        k, offset = divmod(first, rows)
        if offset == 0:
            ring[k % n_slots, :, 0] = ring[(k - 1) % n_slots, :, rows]
        return ring[k % n_slots, :, offset + 1:offset + 1 + end - first]

    def slots():
        end = 0
        for n_rows, diverged_at in _chunk_loop(scenario, views):
            if diverged_at is not None:
                raise NonFiniteState(diverged_at, None)
            first, end = end, end + n_rows
            slot, offset = first // rows % n_slots, first % rows
            t, int_e, e, _, _, _, delta, _, w1, w2, _ = ring[slot, :, offset + (first == 0):
                                                             offset + n_rows + 1]
            with np.errstate(over="ignore"):  # the rows of a run that diverges later
                sums.add(t, int_e, e, delta, w1, w2)
            if end % rows == 0 or end > scenario.n_steps:
                yield slot, end - (first - offset)

    def format_slot(item) -> int:
        # The text stays in the slot's share of `texts`: only its length is sent back.
        slot, n_rows = item
        block = _format_block(ring[slot, :, 1:n_rows + 1])
        texts[slot * text_size:slot * text_size + len(block)] = block
        return len(block)

    handle.write((_TRACE_HEADER + "\n").encode("ascii"))
    for k, size in enumerate(_fan_out(format_slot, slots(), workers)):
        start = k % n_slots * text_size
        handle.write(texts[start:start + size])
    return sums.metrics()
