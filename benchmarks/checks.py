"""Correctness verdict of one benchmark run.

The first round's outputs are checked in full with benchmarks/oracles.py;
every later round must reproduce the first bit for bit (same digests).
An operation fails when it raised, or when it is a `hinf_norm` call on a
second-order test system that misses the tolerance it was asked for (the
known fault of the norm's fixed axis threshold and grid lower bound; the
inputs do not depend on the seed, so the same cases fail in every run).
Any other failed check makes the run incorrect.
"""

from __future__ import annotations

import os
import re

import numpy as np

import oracles
import worker
import workloads


def _design_plant(hp, t: float):
    """(A, B, B_w) at design time t, interpolated here from the shipped anchors."""
    anchors = hp.vehicle_model.default_schedule().breakpoints
    times = [at for at, _ in anchors]
    coeffs = [np.interp(t, times, [getattr(c, name) for _, c in anchors])
              for name in oracles.COEFF_NAMES]
    return oracles.plant(coeffs)


def _gyro(hp) -> tuple[float, float]:
    act = hp.actuators_sensors
    return act.GYRO_NATURAL_FREQ, act.GYRO_DAMPING_TERM


def _parse(pattern: str, text: str) -> float | None:
    match = re.search(pattern + r"\s*=\s*(\S+)", text)
    return float(match.group(1)) if match else None


class Checker:
    def __init__(self, root: str, workload: str, seed: int, result: dict):
        self.hp = worker.load_program(root)
        self.ops = workloads.round_ops(workload, seed)
        self.summaries = result["ops"]
        self.info: dict = {}

    def check(self, index: int, spec: dict) -> list[str]:
        kind = spec["kind"]
        s = self.summaries[index]
        hp = self.hp
        if kind == "cli-simulate":
            if s["rc"] != 0:
                return [f"simulate exited {s['rc']}"]
            self.info["trace_sha256"] = s["trace_sha256"]
            self.info["trace_file_mode"] = oct(os.stat(os.path.join(s["dir"], "trace.csv")).st_mode & 0o777)
            data = oracles.scenario_data(hp.simulator.BUILTIN_SCENARIOS["paper-ltv"](),
                                        _gyro(hp))
            return oracles.check_cli_simulate(data, s["dir"])
        if kind == "simulate":
            data = oracles.scenario_data(worker.build_scenario(hp, spec), _gyro(hp))
            tr = {name: np.load(os.path.join(s["dir"], name + ".npy"))
                  for name in worker.TRACE_FIELDS}
            return oracles.check_trace(data, tr, s["metrics"])
        if kind == "gamma-search":
            A, B, Bw = _design_plant(hp, spec["t"])
            fails, _ = oracles.check_gamma_min(A, B, Bw, np.array(spec["weight"]), s["gamma_min"])
            return fails
        if kind == "synthesize-certify":
            search = self.summaries[spec["search"]]
            A, B, Bw = _design_plant(hp, search["t"])
            C = np.array(search["weight"])
            fails = []
            if s["gamma"] != search["gamma_min"] * spec["multiple"]:
                fails.append(f"solution gamma {s['gamma']!r} is not the requested level")
            fails += oracles.check_solution(A, B, Bw, C, s["gamma"], s["X"], s["K"])
            cert, peak = oracles.check_certificate(A, B, Bw, C, s["K"], s["gamma"])
            return fails + cert + oracles.check_norm(s["norm"], peak,
                                                     workloads.CLOSED_LOOP_NORM_TOL)
        if kind == "second-order-norm":
            return oracles.check_norm(s["value"], oracles.second_order_peak(spec["zeta"]), spec["tol"])
        return self._check_cli(spec["argv"], s)

    def _check_cli(self, argv: list[str], s: dict) -> list[str]:
        if s["rc"] != 0:
            return [f"{' '.join(argv)} exited {s['rc']}"]
        command = argv[0]
        if command == "norm":
            wn, damp = _gyro(self.hp)
            value = _parse("hinf_norm", s["stdout"])
            if "gyro" in argv:
                ref = oracles.second_order_peak(damp / (2.0 * wn))
            else:
                ref = 1.0  # first-order lag: peak gain at DC
            if value is None:
                return ["norm printed no value"]
            return oracles.check_norm(value, ref, float(argv[argv.index("--tol") + 1]))
        t = float(argv[argv.index("--design-time") + 1])
        A, B, Bw = _design_plant(self.hp, t)
        C = np.array([[0.0, 1.0, 0.0]])
        if command == "gamma-search":
            gamma_min = _parse("gamma_min", s["stdout"])
            if gamma_min is None:
                return ["gamma-search printed no gamma_min"]
            return oracles.check_gamma_min(A, B, Bw, C, gamma_min)[0]
        syn = s["synthesis"]
        self.info["synthesis_json_mode"] = oct(s["mode"])
        gamma = float(argv[argv.index("--gamma") + 1])
        fails = []
        if syn["gamma"] != gamma or syn["t_design"] != t:
            fails.append("synthesis.json holds another design point")
        return fails + oracles.check_solution(A, B, Bw, np.array(syn["C_perf"]), gamma,
                                              syn["X"], syn["K"])


def check_run(root: str, workload: str, seed: int, result: dict) -> dict:
    checker = Checker(root, workload, seed, result)
    ops = checker.ops
    problems, known = [], []
    failed_per_round = 0
    for index, spec in enumerate(ops):
        summary = checker.summaries[index]
        label = f"op {index} ({spec['kind']})"
        if "error" in summary:
            problems.append(f"{label} raised {summary['error']}")
            failed_per_round += 1
            continue
        fails = checker.check(index, spec)
        if not fails:
            continue
        if spec["kind"] == "second-order-norm":
            known.append(f"zeta={spec['zeta']:g} tol={spec['tol']:g}")
            failed_per_round += 1
        else:
            problems += [f"{label}: {f}" for f in fails]
    digests = result["digests"]
    for r, round_digests in enumerate(digests[1:], start=1):
        for index, digest in enumerate(round_digests):
            if digest != digests[0][index]:
                problems.append(f"round {r} op {index} ({ops[index]['kind']}) "
                                "differs from round 0")
    checker.info["known_failures"] = known
    return {
        "correct": not problems,
        "attempted": len(ops) * len(digests),
        "failed": failed_per_round * len(digests),
        "problems": problems,
        "info": checker.info,
    }
