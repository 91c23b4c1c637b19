"""Seeded inputs of the three benchmark workloads, as plain data.

One round of a workload is a fixed list of operation specs (dicts of
numbers, strings and lists).  The worker turns each spec into program
objects and times the call; the checker rebuilds the same specs from the
same seed and verifies the outputs apart from the program.  A run repeats
the round, so every run attempts the same operations in the same order.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("simulate-cli", "dispersion-sweep", "synthesis-sweep")

#: The command the roadmap names as end to end: the shipped full-length
#: time-varying scenario (100 s at dt = 2e-4, 500 k steps), through the CLI.
SIMULATE_CLI_CONFIG = {"scenario": "paper-ltv"}

# --- dispersion-sweep -------------------------------------------------------

#: Window starts of the eight scenarios of a round (20 s spans, 100 k steps
#: each).  They are fixed so that every seed keeps the same noise-cache
#: footprint (the cache is indexed from absolute time).
DISPERSION_WINDOWS = (60.0, 60.0, 80.0, 80.0, 100.0, 100.0, 120.0, 120.0)
DISPERSION_SPAN = 20.0
#: Magnitude range of the per-coefficient perturbation; the sign is random.
PERTURBATION_RANGE = (0.10, 0.30)
#: Multipliers of the shipped attenuation level (7.8 at 100 s, 20 at 60 s).
GAMMA_MULTIPLIERS = (0.5, 1.0, 2.0)

# --- synthesis-sweep --------------------------------------------------------

GAMMA_BRACKET = (1e-3, 1e6)
SEARCH_TOL = 1e-6
#: Multiples of each gamma_min at which the design is synthesized and its
#: closed loop T_zw = (A - B K, B_w, [C; -K], 0) certified with hinf_norm.
SYNTH_MULTIPLES = (1.0 + 1e-3, 1.5, 4.0)
CLOSED_LOOP_NORM_TOL = 1e-6
#: Second-order test systems wn^2 / (s^2 + 2 zeta wn s + wn^2).  The natural
#: frequency is the gyro's (80 pi rad/s); the inputs do not depend on the
#: seed, so the cases hinf_norm misses fail identically in every run.
SECOND_ORDER_WN = 80.0 * math.pi
SECOND_ORDER_ZETAS = (0.25, 5e-3, 1e-3, 1e-4, 1e-5, 1e-6)
SECOND_ORDER_TOLS = (1e-6, 1e-8)


def round_ops(workload: str, seed: int) -> list[dict]:
    """Operation specs of one round of `workload` for `seed`."""
    if workload == "simulate-cli":
        return [{"kind": "cli-simulate"}]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "dispersion-sweep":
        return [_dispersion_scenario(rng, i) for i in range(len(DISPERSION_WINDOWS))]
    if workload == "synthesis-sweep":
        return _synthesis_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _dispersion_scenario(rng: np.random.Generator, i: int) -> dict:
    t0 = DISPERSION_WINDOWS[i]
    tf = t0 + DISPERSION_SPAN
    lo, hi = PERTURBATION_RANGE

    def factors() -> list[float]:
        sign = rng.choice([-1.0, 1.0], size=7)
        return (1.0 + sign * rng.uniform(lo, hi, size=7)).tolist()

    def channel(sine_amp: float, step_amp: float) -> list[list]:
        return [
            ["sine", float(rng.uniform(0.5, 1.5) * sine_amp),
             float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.0, 2.0 * math.pi))],
            ["step", float(rng.uniform(t0 + 1.0, tf - 1.0)),
             float(rng.uniform(-1.0, 1.0) * step_amp)],
            ["noise", float(rng.uniform(0.002, 0.01)), int(rng.integers(1, 2**31 - 1))],
        ]

    return {
        "kind": "simulate",
        "design": ("t60", "t100")[i % 2],
        "gamma_multiplier": float(rng.choice(GAMMA_MULTIPLIERS)),
        "feedback": ("true_state", "gyro_rate")[(i // 2) % 2],
        "t_span": [t0, tf],
        "factors_t60": factors(),
        "factors_t100": factors(),
        "channel1": channel(0.02, 0.03),
        "channel2": channel(0.03, 0.05),
    }


def _synthesis_ops(rng: np.random.Generator) -> list[dict]:
    times = [60.0, float(np.round(rng.uniform(60.0, 100.0), 3)), 100.0]
    diag = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=3)).round(4).tolist()
    weights = [[[0.0, 1.0, 0.0]], np.eye(3).tolist(), np.diag(diag).tolist()]
    ops: list[dict] = []
    for t in times:
        for weight in weights:
            search = len(ops)
            ops.append({"kind": "gamma-search", "t": t, "weight": weight})
            for mult in SYNTH_MULTIPLES:
                ops.append({"kind": "synthesize-certify", "search": search, "multiple": mult})
    for zeta in SECOND_ORDER_ZETAS:
        for tol in SECOND_ORDER_TOLS:
            ops.append({"kind": "second-order-norm", "zeta": zeta, "tol": tol})
    t_cli = times[1]
    ops += [
        {"kind": "cli", "argv": ["gamma-search", "--design-time", repr(t_cli),
                                 "--gamma", "1.0", "--tol", repr(SEARCH_TOL)]},
        {"kind": "cli", "argv": ["synthesize", "--design-time", repr(t_cli),
                                 "--gamma", repr(float(np.round(rng.uniform(1.0, 20.0), 3)))]},
        {"kind": "cli", "argv": ["norm", "--model", "gyro", "--tol", "1e-08"]},
        {"kind": "cli", "argv": ["norm", "--model", "servo", "--tol", "1e-06"]},
    ]
    return ops
