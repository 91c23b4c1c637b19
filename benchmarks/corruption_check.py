"""Shows that every output check of the benchmark rejects a corrupted output.

    python3 benchmarks/corruption_check.py

Produces short outputs of each kind with the program (a 2 s CLI simulate,
a 2 s dispersion scenario, a gamma search, a synthesis, closed-loop and
second-order norms), confirms that the checks pass them unchanged, then
corrupts one value at a time and confirms that the matching check fails.
Prints one line per case and exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    hp = worker.load_program(ROOT)
    out = os.path.join(ROOT, ".bench_out", "corruption-check")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    results = []
    gyro = (hp.actuators_sensors.GYRO_NATURAL_FREQ, hp.actuators_sensors.GYRO_DAMPING_TERM)

    def case(name: str, fails: list[str], expect_fail: bool) -> None:
        ok = bool(fails) == expect_fail
        results.append(ok)
        verdict = "rejected" if fails else "accepted"
        print(f"{'ok  ' if ok else 'MISS'} {name}: {verdict}" + (f" ({fails[0]})" if fails else ""))

    # CLI simulate, 2 s of the shipped scenario.
    span = [60.0, 62.0]
    with open(os.path.join(out, "cfg.json"), "w") as handle:
        json.dump({"scenario": "paper-ltv", "t_span": span}, handle)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = hp.cli.main(["simulate", "--config", os.path.join(out, "cfg.json"), "--out", out])
    assert rc == 0, rc
    data = oracles.scenario_data(hp.simulator.BUILTIN_SCENARIOS["paper-ltv"](t_span=tuple(span)),
                                 gyro)
    csv_path = os.path.join(out, "trace.csv")
    with open(csv_path) as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(os.path.join(out, "metrics.json")) as handle:
        metrics = json.load(handle)
    case("cli trace as written", oracles.check_cli_simulate(data, out), False)

    def csv_case(name, new_lines, new_metrics=None):
        with open(csv_path, "w") as handle:
            handle.writelines(new_lines)
        with open(os.path.join(out, "metrics.json"), "w") as handle:
            json.dump(new_metrics or metrics, handle)
        case(name, oracles.check_cli_simulate(data, out), True)

    def edit_cell(row: int, col: int, factor: float):
        new = list(lines)
        cells = new[row].rstrip("\n").split(",")
        cells[col] = repr(float(cells[col]) * factor + 1e-12)
        new[row] = ",".join(cells) + "\n"
        return new

    csv_case("cli header renamed", [lines[0].replace("delta_rad", "delta")] + lines[1:])
    csv_case("cli last row dropped", lines[:-1])
    csv_case("cli time shifted", edit_cell(500, 0, 1.0 + 1e-9))
    csv_case("cli int_e at one step", edit_cell(5000, 1, 1.0 + 1e-6))
    csv_case("cli v_z at one step", edit_cell(7000, 3, 1.0 + 1e-6))
    csv_case("cli theta at one step", edit_cell(300, 4, 1.0 + 1e-6))
    csv_case("cli q at one step", edit_cell(300, 5, 1.0 + 1e-6))
    csv_case("cli deflection at one step", edit_cell(9000, 6, 1.0 + 1e-6))
    csv_case("cli command u at one step", edit_cell(2000, 7, 1.0 + 1e-6))
    csv_case("cli w1 at one step", edit_cell(4000, 8, 1.0 + 1e-6))
    csv_case("cli q_meas at one step", edit_cell(4000, 10, 1.0 + 1e-6))
    csv_case("cli metrics rms_e", lines, dict(metrics, rms_e=metrics["rms_e"] * (1 + 1e-6)))
    csv_case("cli metrics saturation", lines,
             dict(metrics, servo_saturation_fraction=metrics["servo_saturation_fraction"] + 1e-4))

    # One dispersion scenario, shortened to 2 s.
    spec = workloads.round_ops("dispersion-sweep", 0)[5]
    spec["t_span"] = [spec["t_span"][0], spec["t_span"][0] + 2.0]
    scenario = worker.build_scenario(hp, spec)
    trace, m = hp.simulator.simulate(scenario)
    tr = {name: np.array(getattr(trace, name)) for name in worker.TRACE_FIELDS}
    m = hp.simulator.metrics_to_dict(m)
    data = oracles.scenario_data(scenario, gyro)
    case("sweep trace as simulated", oracles.check_trace(data, tr, m), False)
    for name, index, factor in (("x", (3000, 1), 1 + 1e-7), ("delta", 4000, 1 + 1e-7),
                                ("u", 100, 1 + 1e-6), ("w", (6000, 1), 1 + 1e-6),
                                ("q_meas", 8000, 1 + 1e-6), ("t", 10, 1 + 1e-9)):
        bad = copy.deepcopy(tr)
        bad[name][index] = bad[name][index] * factor + 1e-12
        case(f"sweep {name} at one sample", oracles.check_trace(data, bad, m), True)
    case("sweep metrics energy_ratio",
         oracles.check_trace(data, tr, dict(m, energy_ratio=m["energy_ratio"] * (1 + 1e-6))), True)
    case("sweep metrics key missing",
         oracles.check_trace(data, tr, {k: v for k, v in m.items() if k != "max_abs_e"}), True)

    # Synthesis: gamma_min, a solution near it, its closed-loop norm.
    ops = workloads.round_ops("synthesis-sweep", 0)
    search = ops[0]
    coeffs, plant, C = worker.synthesis_problem(hp, search["t"], search["weight"])
    A, B, Bw = oracles.plant([getattr(coeffs, n) for n in oracles.COEFF_NAMES])
    g = hp.care_solver.gamma_search(plant.A, plant.B, plant.B_w, C, workloads.GAMMA_BRACKET,
                                    tol=workloads.SEARCH_TOL)
    case("gamma_min as searched", oracles.check_gamma_min(A, B, Bw, C, g)[0], False)
    case("gamma_min 1e-3 high", oracles.check_gamma_min(A, B, Bw, C, g * (1 + 1e-3))[0], True)
    case("gamma_min 1e-3 low", oracles.check_gamma_min(A, B, Bw, C, g * (1 - 1e-3))[0], True)
    gamma = g * workloads.SYNTH_MULTIPLES[1]
    sol, gain = hp.controller.synthesize(hp.controller.DesignPoint(search["t"], gamma, coeffs, C))
    X, K = sol.X, gain.K
    case("solution as synthesized", oracles.check_solution(A, B, Bw, C, gamma, X, K), False)
    bad = X.copy()
    bad[0, 0] *= 1 + 1e-6
    case("X[0,0] scaled by 1+1e-6", oracles.check_solution(A, B, Bw, C, gamma, bad, B.T @ bad), True)
    bad = X.copy()
    bad[1, 2] += 1e-6 * np.abs(X).max()
    bad[2, 1] = bad[1, 2]
    case("X off-diagonal shifted", oracles.check_solution(A, B, Bw, C, gamma, bad, B.T @ bad), True)
    case("K scaled by 1+1e-6", oracles.check_solution(A, B, Bw, C, gamma, X, K * (1 + 1e-6)), True)
    case("X of another gamma", oracles.check_solution(A, B, Bw, C, gamma * 1.01, X, K), True)
    fails, peak = oracles.check_certificate(A, B, Bw, C, K, gamma)
    case("certificate at the design gamma", fails, False)
    case("certificate at 0.9 x the closed-loop norm",
         oracles.check_certificate(A, B, Bw, C, K, 0.9 * peak)[0], True)
    Cz = np.vstack([C, -K])
    value = hp.care_solver.hinf_norm(hp.care_solver.StateSpace(
        A - B @ K, Bw, Cz, np.zeros((Cz.shape[0], 2))), tol=1e-6)
    case("closed-loop norm as computed", oracles.check_norm(value, peak, 1e-6), False)
    case("closed-loop norm 2e-6 high", oracles.check_norm(value * (1 + 2e-6), peak, 1e-6), True)
    peak2 = oracles.second_order_peak(0.25)
    case("second-order norm 2e-8 high", oracles.check_norm(peak2 * (1 + 2e-8), peak2, 1e-8), True)

    shutil.rmtree(out, ignore_errors=True)
    missed = results.count(False)
    print(f"{len(results)} cases, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
