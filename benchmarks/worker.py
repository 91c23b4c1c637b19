"""Timed part of one benchmark run, in a process of its own.

The worker imports the program (and numpy) only, calls it in process one
operation at a time, and times each call with the wall clock and the
process CPU clock.  Outputs are saved or hashed after each timed call, so
the checks made in the parent process (scipy, CSV parsing, frequency grids)
stay out of the times and out of this process's peak resident memory.

    python3 benchmarks/worker.py --root . --workload NAME --seed N \
        --seconds S --trace 0|1 --out DIR

writes DIR/result.json (and DIR/spans.jsonl when traced).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

TRACE_FIELDS = ("t", "x", "theta", "q", "delta", "u", "w", "q_meas")


def load_program(root: str) -> types.SimpleNamespace:
    """Import hinf_autopilot from `root`/src and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "hinf_autopilot", "__init__.py")):
        raise SystemExit(f"no hinf_autopilot package under {src}")
    sys.path.insert(0, src)
    import hinf_autopilot
    from hinf_autopilot import (
        actuators_sensors, care_solver, cli, controller, simulator, vehicle_model,
    )

    if not os.path.abspath(hinf_autopilot.__file__).startswith(src + os.sep):
        raise SystemExit(f"hinf_autopilot imported from {hinf_autopilot.__file__}, not {src}")
    return types.SimpleNamespace(
        cli=cli, simulator=simulator, controller=controller,
        care_solver=care_solver, vehicle_model=vehicle_model,
        actuators_sensors=actuators_sensors,
    )


def build_scenario(hp, spec: dict):
    """Program Scenario of a dispersion-sweep spec."""
    vm, sim, ctl = hp.vehicle_model, hp.simulator, hp.controller

    def scaled(coeffs, factors):
        return vm.DynamicCoefficients(*(coeffs.as_array() * np.asarray(factors)).tolist())

    schedule = vm.CoefficientSchedule((
        (60.0, scaled(vm.PITCH_COEFFS_T60, spec["factors_t60"])),
        (100.0, scaled(vm.PITCH_COEFFS_T100, spec["factors_t100"])),
    ))
    if spec["design"] == "t60":
        design = ctl.design_point_t60(gamma=20.0 * spec["gamma_multiplier"])
    else:
        design = ctl.design_point_t100(gamma=7.8 * spec["gamma_multiplier"])

    def prims(items):
        out = []
        for kind, a, b, *rest in items:
            if kind == "sine":
                out.append(sim.Sine(amplitude=a, frequency=b, phase=rest[0]))
            elif kind == "step":
                out.append(sim.Step(t0=a, amplitude=b))
            else:
                out.append(sim.Noise(amplitude=a, seed=b))
        return tuple(out)

    return sim.Scenario(
        design=design,
        schedule=schedule,
        disturbances=sim.DisturbanceSpec(channel1=prims(spec["channel1"]),
                                          channel2=prims(spec["channel2"])),
        t_span=tuple(spec["t_span"]),
        feedback_source=spec["feedback"],
        plant_mode="ltv",
    )


def synthesis_problem(hp, t: float, weight) -> tuple:
    """(coefficients, plant, C_perf) of a design time and weighting."""
    vm = hp.vehicle_model
    coeffs = vm.coefficients_at(vm.default_schedule(), t)
    return coeffs, vm.assemble_pitch_plant(coeffs), np.array(weight, dtype=float)


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(memoryview(np.ascontiguousarray(arr)).cast("B"))
    return digest.hexdigest()


class Runner:
    """Prepares, times and records the operations of one workload."""

    def __init__(self, hp, workload: str, out: str):
        self.hp = hp
        self.out = out
        self.results: dict[int, object] = {}
        self.trace_bytes = 0
        if workload == "simulate-cli":
            self.config = os.path.join(out, "simulate-config.json")
            with open(self.config, "w") as handle:
                json.dump(workloads.SIMULATE_CLI_CONFIG, handle)

    def op_dir(self, index: int, keep: bool) -> str:
        path = os.path.join(self.out, "r0" if keep else "tmp", f"op{index:03d}")
        os.makedirs(path, exist_ok=True)
        return path

    def prepare(self, index: int, spec: dict, keep: bool):
        """Zero-argument callable that performs the operation."""
        hp, kind = self.hp, spec["kind"]
        if kind == "cli-simulate":
            argv = ["simulate", "--config", self.config, "--out", self.op_dir(index, keep)]
            return lambda: hp.cli.main(argv)
        if kind == "simulate":
            scenario = build_scenario(hp, spec)
            return lambda: hp.simulator.simulate(scenario)
        if kind == "gamma-search":
            _, plant, C = synthesis_problem(hp, spec["t"], spec["weight"])
            return lambda: hp.care_solver.gamma_search(
                plant.A, plant.B, plant.B_w, C, workloads.GAMMA_BRACKET, tol=workloads.SEARCH_TOL)
        if kind == "synthesize-certify":
            search = self.results[spec["search"]]
            coeffs, plant, C = synthesis_problem(hp, search["t"], search["weight"])
            design = hp.controller.DesignPoint(
                t_design=search["t"], gamma=search["gamma_min"] * spec["multiple"],
                coeffs=coeffs, C_perf=C)

            def synthesize_certify():
                solution, gain = hp.controller.synthesize(design)
                K = gain.K
                loop = hp.care_solver.StateSpace(
                    A=plant.A - plant.B @ K, B_in=plant.B_w, C_out=np.vstack([C, -K]),
                    D_ff=np.zeros((C.shape[0] + 1, plant.B_w.shape[1])))
                norm = hp.care_solver.hinf_norm(loop, tol=workloads.CLOSED_LOOP_NORM_TOL)
                return solution, gain, norm

            return synthesize_certify
        if kind == "second-order-norm":
            wn, zeta = workloads.SECOND_ORDER_WN, spec["zeta"]
            system = hp.care_solver.StateSpace(
                A=[[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]], B_in=[[0.0], [wn * wn]],
                C_out=[[1.0, 0.0]], D_ff=[[0.0]])
            return lambda: hp.care_solver.hinf_norm(system, tol=spec["tol"])
        if kind == "cli":
            argv = list(spec["argv"])
            if argv[0] == "synthesize":
                argv += ["--out", os.path.join(self.out, f"cli-op{index:03d}")]
            return lambda: hp.cli.main(argv)
        raise ValueError(f"unknown operation kind {kind!r}")

    def record(self, index: int, spec: dict, result, stdout: str, keep: bool) -> tuple[str, dict]:
        """(digest, summary) of an operation's output; saved in full when `keep`."""
        kind = spec["kind"]
        if kind == "cli-simulate":
            op_dir = self.op_dir(index, keep)
            if result != 0:
                return f"rc={result}", {"rc": result, "stdout": stdout}
            trace_path = os.path.join(op_dir, "trace.csv")
            metrics_path = os.path.join(op_dir, "metrics.json")
            self.trace_bytes += os.path.getsize(trace_path)
            summary = {"rc": result, "dir": op_dir,
                       "trace_sha256": _sha256_file(trace_path),
                       "metrics_sha256": _sha256_file(metrics_path)}
            digest = f"{result}:{summary['trace_sha256']}:{summary['metrics_sha256']}"
            if not keep:
                shutil.rmtree(op_dir)
            return digest, summary
        if kind == "simulate":
            trace, metrics = result
            arrays = [getattr(trace, name) for name in TRACE_FIELDS]
            metrics_dict = self.hp.simulator.metrics_to_dict(metrics)
            digest = _sha256_arrays(arrays) + repr(sorted(metrics_dict.items()))
            summary = {"metrics": metrics_dict}
            if keep:
                op_dir = self.op_dir(index, keep)
                for name, arr in zip(TRACE_FIELDS, arrays):
                    np.save(os.path.join(op_dir, name + ".npy"), arr)
                summary["dir"] = op_dir
            return digest, summary
        if kind == "gamma-search":
            summary = {"t": spec["t"], "weight": spec["weight"], "gamma_min": result}
        elif kind == "synthesize-certify":
            solution, gain, norm = result
            summary = {"gamma": solution.gamma, "X": solution.X.tolist(),
                       "K": gain.K.tolist(), "norm": norm}
        elif kind == "second-order-norm":
            summary = {"value": result}
        else:  # cli
            summary = {"rc": result, "stdout": stdout}
            if spec["argv"][0] == "synthesize":
                path = os.path.join(self.out, f"cli-op{index:03d}", "synthesis.json")
                with open(path) as handle:
                    summary["synthesis"] = json.load(handle)
                summary["mode"] = os.stat(path).st_mode & 0o777
        self.results[index] = summary
        return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest(), summary


def run(args) -> dict:
    hp = load_program(args.root)
    ops = workloads.round_ops(args.workload, args.seed)
    runner = Runner(hp, args.workload, args.out)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(hp)
    clock, cpu_clock = time.perf_counter, time.process_time

    rounds, digests, summaries = [], [], []
    start = clock()
    while True:
        r = len(rounds)
        keep = r == 0
        walls, cpus, round_digests = [], [], []
        for index, spec in enumerate(ops):
            buf = io.StringIO()
            result = None
            c0 = c1 = t0 = t1 = 0.0
            if tracer is not None:
                tracer.op_id = r * len(ops) + index
            try:
                call = runner.prepare(index, spec, keep)
                with contextlib.redirect_stdout(buf):
                    c0 = cpu_clock()
                    t0 = clock()
                    try:
                        result = call()
                    finally:
                        t1 = clock()
                        c1 = cpu_clock()
                error = None
            except Exception as exc:  # recorded, checked and counted as failed
                error = f"{type(exc).__name__}: {exc}"
                runner.results[index] = None
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            if error is None:
                digest, summary = runner.record(index, spec, result, buf.getvalue(), keep)
            else:
                digest, summary = error, {"error": error}
            del result
            round_digests.append(digest)
            if keep:
                summaries.append(summary)
        rounds.append({"wall": walls, "cpu": cpus})
        digests.append(round_digests)
        if clock() - start >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = getattr(hp.simulator, "_NOISE_CACHE", {})
    noise_cache_bytes = sum(int(getattr(v, "nbytes", 0)) for v in cache.values())
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "digests": digests,
        "ops": summaries,
        "peak_rss_mb": peak_rss_mb,
        "noise_cache_mb": noise_cache_bytes / 1e6,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if tracer is not None:
        tracer.uninstall()
        traced_wall = statistics.median(sum(rnd["wall"]) for rnd in rounds)
        out["per_layer"] = tracing.per_layer(
            tracer.spans, len(rounds), runner.trace_bytes, noise_cache_bytes, traced_wall)
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(os.path.join(args.out, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
