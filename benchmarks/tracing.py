"""In-memory spans around the program's layer boundaries, for traced runs.

The tracer replaces each callable at the name the program looks it up by
(for example `simulate` reaches `synthesize` as `simulator.synthesize`) with
a wrapper that records a span: name, start, end, parent span, operation id
and whether the call raised.  A name the program no longer has is skipped,
so its span is simply absent.  Spans stay in memory and are written when
the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

NAME, START, END, PARENT, OP, OK, STEPS = range(7)


def _steps_of(result) -> int:
    trace = result[0]
    return len(trace.t) - 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, True, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if on_result is not None:
                span[STEPS] = on_result(result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def install(self, hp) -> None:
        """Wrap every layer boundary of the program namespace `hp`."""
        sim, ctl, care, cli, vm = hp.simulator, hp.controller, hp.care_solver, hp.cli, hp.vehicle_model
        self.wrap(sim, "simulate", "simulator.simulate", _steps_of)
        self.wrap(sim, "_stage_grids", "simulator._stage_grids")
        self.wrap(sim, "_step_updates", "simulator._step_updates")
        self.wrap(sim.DisturbanceSpec, "sample_grid", "simulator.sample_grid")
        self.wrap(sim, "compute_metrics", "simulator.compute_metrics")
        self.wrap(sim, "write_trace_csv", "simulator.write_trace_csv")
        for method in ("rate", "rate_derivative", "rate_integral"):
            self.wrap(vm.CommandProfile, method, "vehicle_model.profile")
        self.wrap(sim, "synthesize", "controller.synthesize")
        self.wrap(ctl, "synthesize", "controller.synthesize")
        self.wrap(ctl, "solve_care", "care_solver.solve_care")
        self.wrap(care, "solve_care", "care_solver.solve_care")
        self.wrap(care, "_pbh_warnings", "care_solver._pbh_warnings")
        self.wrap(care, "gamma_search", "care_solver.gamma_search")
        self.wrap(care, "hinf_norm", "care_solver.hinf_norm")
        self.wrap(care, "_axis_crossing", "care_solver._axis_crossing")
        self.wrap(care, "_grid_lower_bound", "care_solver._grid_lower_bound")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "_atomic_write_text", "cli._atomic_write_text")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def per_layer(spans: list[list], rounds: int, trace_bytes: int, noise_cache_bytes: int,
              traced_wall_s: float) -> dict:
    """Per-layer metrics per round of the workload, from one traced run."""
    dur = {}
    calls = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        d = span[END] - span[START]
        dur[span[NAME]] = dur.get(span[NAME], 0.0) + d
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += d

    def self_time(name: str) -> float:
        return sum(s[END] - s[START] - child_time[i]
                   for i, s in enumerate(spans) if s[NAME] == name)

    def total(name: str) -> float:
        return dur.get(name, 0.0) / rounds

    def count(name: str) -> float:
        return calls.get(name, 0) / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    probes = [s for s in spans
              if s[NAME] == "care_solver.solve_care"
              and _has_ancestor(spans, s, "care_solver.gamma_search")]
    level_tests = sum(1 for s in spans
                      if s[NAME] == "care_solver._axis_crossing"
                      and _has_ancestor(spans, s, "care_solver.hinf_norm"))
    care_us = [(s[END] - s[START]) * 1e6 for s in spans if s[NAME] == "care_solver.solve_care"]
    steps = sum(s[STEPS] for s in spans if s[NAME] == "simulator.simulate")
    sim_self = self_time("simulator.simulate")
    write_s = total("simulator.write_trace_csv")
    trace_mb = trace_bytes / 1e6 / rounds
    return {
        "simulator.write_trace_csv.s": (write_s, "s"),
        "simulator.trace_mb": (trace_mb, "MB"),
        "simulator.trace_mb_per_s": (ratio(trace_mb, write_s), "MB/s"),
        "simulator.simulate.self_s": (sim_self / rounds, "s"),
        "simulator.loop_ns_per_step": (ratio(sim_self * 1e9, steps), "ns"),
        "simulator.steps": (steps / rounds, "count"),
        "simulator._stage_grids.s": (total("simulator._stage_grids"), "s"),
        "simulator._step_updates.s": (total("simulator._step_updates"), "s"),
        "simulator.sample_grid.s": (total("simulator.sample_grid"), "s"),
        "simulator.noise_cache_mb": (noise_cache_bytes / 1e6, "MB"),
        "simulator.compute_metrics.s": (total("simulator.compute_metrics"), "s"),
        "vehicle_model.profile.s": (total("vehicle_model.profile"), "s"),
        "controller.synthesize.calls": (count("controller.synthesize"), "count"),
        "controller.synthesize.s": (total("controller.synthesize"), "s"),
        "care_solver.solve_care.calls": (count("care_solver.solve_care"), "count"),
        "care_solver.solve_care.s": (total("care_solver.solve_care"), "s"),
        "care_solver.solve_care.p50_us": (statistics.median(care_us) if care_us else 0.0, "us"),
        "care_solver._pbh_warnings.s": (total("care_solver._pbh_warnings"), "s"),
        "care_solver.gamma_search.calls": (count("care_solver.gamma_search"), "count"),
        "care_solver.gamma_search.s": (total("care_solver.gamma_search"), "s"),
        "care_solver.gamma_search.probes_per_call": (
            ratio(len(probes), calls.get("care_solver.gamma_search", 0)), "count"),
        "care_solver.probe_feasible_ratio": (
            ratio(sum(1 for s in probes if s[OK]), len(probes)), "ratio"),
        "care_solver.hinf_norm.calls": (count("care_solver.hinf_norm"), "count"),
        "care_solver.hinf_norm.s": (total("care_solver.hinf_norm"), "s"),
        "care_solver.hinf_norm.level_tests_per_call": (
            ratio(level_tests, calls.get("care_solver.hinf_norm", 0)), "count"),
        "care_solver._grid_lower_bound.s": (total("care_solver._grid_lower_bound"), "s"),
        "cli.main.calls": (count("cli.main"), "count"),
        "cli.main.self_s": (self_time("cli.main") / rounds, "s"),
        "cli._atomic_write_text.s": (total("cli._atomic_write_text"), "s"),
        "bench.traced_wall_s": (traced_wall_s, "s"),
    }
