"""Benchmark of hinf-autopilot: one workload, timed, checked, reported.

    python3 benchmarks/run.py --workload simulate-cli|dispersion-sweep|synthesis-sweep
                              --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from its
`src/` directory.  The steps of a run:

1. (untraced runs) `setup_s`: the median over several fresh interpreters
   of start-up through `import hinf_autopilot.cli`;
2. a worker process (benchmarks/worker.py) repeats whole rounds of the
   workload's operations for S seconds, timing each call in process;
3. this process checks the outputs of the first round apart from the
   program (benchmarks/oracles.py), and checks that every later round
   reproduced them bit for bit;
4. the last line of standard output is one JSON object with `correct`,
   `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
   per-layer metrics traced).

BLAS is pinned to one thread in every process it starts; the matrices are
3x3 to 6x6, so no result depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 15
WORKER_TIMEOUT_S = 150.0

os.environ.update(BLAS_ENV)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing hinf_autopilot.cli.

    The timed launches wait without a timeout: a wait with a timeout polls
    with sleeps of up to 50 ms, which would quantize the measurement.
    """
    argv = [sys.executable, "-c", "import hinf_autopilot.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)  # byte-compiles once
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(args, env: dict, out: str) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    with open(os.path.join(out, "result.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hinf_autopilot", "__init__.py")):
        sys.stderr.write(f"no hinf_autopilot sources under {ROOT}/src\n")
        return 2

    env = child_env()
    out = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        setup_s = None if args.trace else measure_setup(env)
        result = run_worker(args, env, out)
        import checks  # scipy is imported only after the timed work

        report = checks.check_run(ROOT, args.workload, args.seed, result)
    finally:
        for name in os.listdir(out):
            if name not in ("result.json", "spans.jsonl"):
                path = os.path.join(out, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.unlink(path)

    rounds = result["rounds"]
    round_walls = [sum(r["wall"]) for r in rounds]
    round_cpus = [sum(r["cpu"]) for r in rounds]
    op_walls = [w for r in rounds for w in r["wall"]]
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "ops_per_round": len(rounds[0]["wall"]), "blas_threads": result["blas_threads"],
        "python": sys.version.split()[0],
    }
    info.update(report["info"])
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("info: " + json.dumps(info, sort_keys=True))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(round_cpus), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
