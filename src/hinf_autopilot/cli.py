"""Command-line surface: synthesis, gamma search, norms, simulation, reporting.

Configuration is one dict (`_load_config`): an optional JSON file whose null
values read as absent keys, with each given flag set over the value it
overrides.  Output files are written atomically (temp file, then rename),
so an invalid run never leaves partial files.  Exit codes: 0 success, 2 config
error, 3 synthesis infeasible, 4 simulation diverged.

Angles cross this boundary in degrees (matching operator convention); the
library itself is radians-only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import care_solver, controller, simulator, vehicle_model
from .actuators_sensors import (
    GYRO_DAMPING_TERM,
    GYRO_NATURAL_FREQ,
    SERVO_TIME_CONSTANT,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4

OUT_DIR_ENV = "HINF_AUTOPILOT_OUT"


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(f"error={code}: {message}\n")
    return status


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str, write):
    """Create `path` through `write(tmp_path)`, a temp file and a rename.

    Returns what `write` returns.  The file gets the mode a plain `open`
    would give it (0o666 less the umask).  If `write` raises, the temp file
    is removed and `path` is left as it was.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    os.close(fd)
    try:
        result = write(tmp)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def _atomic_write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w") as handle:
            handle.write(text)

    _atomic_write(path, write)


def _atomic_write_json(path: str, payload) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def _check_keys(obj, keys, what: str) -> dict:
    """obj less its null values if it is a JSON object with keys in `keys`, else a ConfigError.

    Every JSON object read comes through here: null reads as absent at every level.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object with keys {', '.join(keys)}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} key {', '.join(map(repr, unknown))}; "
                          f"{what} takes {', '.join(keys)}")
    return {key: value for key, value in obj.items() if value is not None}


# Each flag that overrides a config value: argparse dest -> the key path it sets.
_FLAG_KEYS = {"design_time": ("design", "t"), "gamma": ("design", "gamma"),
              "plant_mode": ("plant_mode",), "feedback": ("feedback",), "dt": ("dt",),
              "tol": ("tol",), "bracket": ("gamma_bracket",)}


def _load_config(args) -> dict:
    """The --config object ({} without one) with each given flag set over its value."""
    config: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        config = _check_keys(config, _CONFIG_KEYS[args.command], "config")
    if "design" in config:
        config["design"] = _check_keys(config["design"], ("t", "gamma", "weight"), "design")
    for dest, (*outer, key) in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            target = config
            for name in outer:
                target = target.setdefault(name, {})
            target[key] = value
    return config


def _number(value, what: str) -> float:
    """A finite JSON number as a float, else a ConfigError naming the field."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _tol(config: dict) -> float:
    """The relative tolerance: `tol` (from --tol or the config), else 1e-6."""
    tol = _number(config.get("tol", 1e-6), "tol")
    if tol <= 0.0:
        raise ConfigError("tol must be positive")
    return tol


_WEIGHT_NAMES = {
    "measurement": controller.MEASUREMENT_WEIGHT,
    "identity": np.eye(3),
}

_PRIMITIVES = {cls.__name__.lower(): cls
               for cls in (simulator.Step, simulator.Sine, simulator.Ramp, simulator.Noise)}


def _parse_weight(spec):
    """The weighting `spec` names, or `spec` itself: DesignPoint checks a matrix."""
    if not isinstance(spec, str):
        return spec
    try:
        return _WEIGHT_NAMES[spec]
    except KeyError:
        raise ConfigError(
            f"unknown weighting {spec!r}; use one of {sorted(_WEIGHT_NAMES)}"
        ) from None


def _primitive(item: dict, where: str):
    """The disturbance primitive `item` describes: its `type` and its class's fields."""
    kind = item.get("type")
    cls = _PRIMITIVES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown disturbance primitive type {kind!r} in {where}; "
                          f"use one of {', '.join(_PRIMITIVES)}")
    names = [f.name for f in dataclasses.fields(cls)]
    item = _check_keys(item, ("type", *names), f"{kind} primitive")
    values = {name: item[name] for name in names if name in item}
    for name, value in values.items():
        _number(value, f"{kind} {name}")  # passed on as given: the class checks the rest
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # TypeError: a required field is missing
        raise ConfigError(f"bad {kind} primitive in {where}: {exc}") from exc


def _parse_disturbances(spec, seed_override: int | None) -> simulator.DisturbanceSpec:
    spec = _check_keys(spec, ("channel1", "channel2"), "disturbances")
    channels = []
    for name in ("channel1", "channel2"):
        items = spec.get(name, [])
        if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
            raise ConfigError(f"{name} must be a list of primitive objects, got {items!r}")
        if seed_override is not None:
            items = [dict(item, seed=seed_override) if item.get("type") == "noise" else item
                     for item in items]
        channels.append(tuple(_primitive(item, name) for item in items))
    if seed_override is not None and not any(
        isinstance(prim, simulator.Noise) for prim in channels[0] + channels[1]
    ):
        raise ConfigError(f"--seed {seed_override} given, but no noise primitive to seed")
    return simulator.DisturbanceSpec(channel1=channels[0], channel2=channels[1])


def _design_from_config(config: dict, command: str) -> controller.DesignPoint:
    """The design point of the config's `design` object.

    With neither a design time nor gamma it is the shipped 100 s point
    (gamma = 7.8) on the config's schedule.  gamma-search needs no gamma:
    its design point then carries gamma = inf.
    """
    design_cfg = config.get("design", {})
    t_design, gamma = design_cfg.get("t"), design_cfg.get("gamma")
    weight = _parse_weight(design_cfg.get("weight", "measurement"))
    if gamma is not None:
        gamma = _number(gamma, "gamma")

    if t_design is None and gamma is None:
        shipped = controller.design_point_t100()  # on the schedule in use
        t_design, gamma = shipped.t_design, shipped.gamma
    if gamma is None and command == "gamma-search":
        gamma = math.inf
    if t_design is None or gamma is None:
        raise ConfigError("design time and gamma must be given together")
    t_design = _number(t_design, "design time")

    schedule = _schedule_from_config(config)
    coeffs = vehicle_model.coefficients_at(schedule, t_design)
    try:
        return controller.DesignPoint(
            t_design=t_design, gamma=gamma, coeffs=coeffs, C_perf=weight
        )
    except ValueError as exc:
        raise ConfigError(f"design point at t = {t_design}: {exc}") from exc


def _from_csv(config: dict, key: str, default, load):
    """load(config[key]), or default() when the key is absent."""
    if key not in config:
        return default()
    path = config[key]
    if not isinstance(path, str):  # open() would take a number as a descriptor
        raise ConfigError(f"{key} must be a file path string, got {path!r}")
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _schedule_from_config(config: dict) -> vehicle_model.CoefficientSchedule:
    return _from_csv(config, "schedule_csv", vehicle_model.default_schedule,
                     vehicle_model.load_coefficient_schedule)


def _scenario_from_config(config: dict, seed: int | None) -> simulator.Scenario:
    """The config's built-in `scenario` (else a Scenario) with the config's values."""
    name, builtin = config.get("scenario"), simulator.BUILTIN_SCENARIOS
    if name is not None and not (isinstance(name, str) and name in builtin):
        raise ConfigError(f"unknown scenario {name!r}; use one of {sorted(builtin)}")
    factory = simulator.Scenario if name is None else builtin[name]
    overrides: dict = {}
    if "t_span" in config:
        span = config["t_span"]
        if not isinstance(span, list):  # the Scenario refuses one that is not a pair
            raise ConfigError("t_span must be a [t0, tf] pair")
        overrides["t_span"] = tuple(_number(end, "t_span") for end in span)
    if "dt" in config:
        overrides["dt"] = _number(config["dt"], "dt")

    if "feedback" in config:
        feedback = config["feedback"]
        mapping = {"true": "true_state", "gyro": "gyro_rate"}
        if not isinstance(feedback, str) or feedback not in mapping:
            raise ConfigError(f"feedback must be 'true' or 'gyro', got {feedback!r}")
        overrides["feedback_source"] = mapping[feedback]

    if "plant_mode" in config:
        plant_mode = config["plant_mode"]
        mapping = {"ltv": "ltv", "lti": "lti_frozen", "lti_frozen": "lti_frozen"}
        if not isinstance(plant_mode, str) or plant_mode not in mapping:
            raise ConfigError(f"plant mode must be 'ltv' or 'lti', got {plant_mode!r}")
        overrides["plant_mode"] = mapping[plant_mode]

    overrides["schedule"] = _schedule_from_config(config)
    overrides["profile"] = _from_csv(config, "profile_csv", vehicle_model.default_command_profile,
                                     vehicle_model.load_command_profile)
    if "disturbances" in config or seed is not None:
        overrides["disturbances"] = _parse_disturbances(config.get("disturbances", {}), seed)
    if name is None or "design" in config:
        overrides["design"] = _design_from_config(config, "simulate")
    try:
        return factory(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _builtin_system(name: str) -> care_solver.StateSpace:
    if name == "gyro":
        wn2 = GYRO_NATURAL_FREQ**2
        return care_solver.StateSpace(
            A=np.array([[0.0, 1.0], [-wn2, -GYRO_DAMPING_TERM]]),
            B_in=np.array([[0.0], [wn2]]),
            C_out=np.array([[1.0, 0.0]]),
            D_ff=np.array([[0.0]]),
        )
    pole = 1.0 / SERVO_TIME_CONSTANT  # "servo": --model takes no other choice
    return care_solver.StateSpace(
        A=np.array([[-pole]]),
        B_in=np.array([[pole]]),
        C_out=np.array([[1.0]]),
        D_ff=np.array([[0.0]]),
    )


def _system_from_config(config: dict, model: str | None) -> care_solver.StateSpace:
    if model is not None:
        return _builtin_system(model)
    if "system" not in config:
        raise ConfigError("norm needs --model gyro|servo or a config 'system' entry")
    system = _check_keys(config["system"], ("A", "B", "C", "D"), "system")
    try:
        return care_solver.StateSpace(
            A=system["A"], B_in=system["B"], C_out=system["C"], D_ff=system["D"]
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad system matrices: {exc}") from exc


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synthesize(args) -> int:
    design = _design_from_config(_load_config(args), args.command)
    out = _out_dir(args)
    solution, gain = controller.synthesize(design)
    payload = {
        "t_design": design.t_design,
        "gamma": solution.gamma,
        "C_perf": design.C_perf.tolist(),
        "X": solution.X.tolist(),
        "K": gain.K.tolist(),
        "closed_loop_eigs": _complex_list(solution.closed_loop_eigs),
        "worst_case_eigs": _complex_list(solution.worst_case_eigs),
        "riccati_residual": solution.residual,
        "warnings": list(solution.warnings),
    }
    path = os.path.join(out, "synthesis.json")
    _atomic_write_json(path, payload)
    print(f"wrote {path}")
    print(f"K = {np.array2string(gain.K[0], precision=6)}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = _scenario_from_config(_load_config(args), args.seed)
    out = _out_dir(args)

    def write_trace(tmp: str) -> simulator.Metrics:
        with open(tmp, "wb") as handle:
            return simulator.simulate_to_csv(scenario, handle)

    trace_path = os.path.join(out, "trace.csv")
    metrics = _atomic_write(trace_path, write_trace)
    metrics_path = os.path.join(out, "metrics.json")
    _atomic_write_json(metrics_path, simulator.metrics_to_dict(metrics))
    print(f"wrote {trace_path}")
    print(f"wrote {metrics_path}")
    print(json.dumps(simulator.metrics_to_dict(metrics), indent=2))
    return EXIT_OK


def _cmd_norm(args) -> int:
    config = _load_config(args)
    system = _system_from_config(config, args.model)
    tol = _tol(config)
    try:
        value = care_solver.hinf_norm(system, tol=tol)
    except (care_solver.UnstableSystem, care_solver.NonFiniteGain) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"hinf_norm = {value!r}")
    return EXIT_OK


def _cmd_gamma_search(args) -> int:
    config = _load_config(args)
    problem = _design_from_config(config, args.command).problem
    bracket = config.get("gamma_bracket", (1e-3, 1e6))
    if not (isinstance(bracket, (list, tuple)) and len(bracket) == 2):
        raise ConfigError("gamma bracket must be [lo, hi]")
    lo, hi = (_number(end, "gamma bracket") for end in bracket)
    tol = _tol(config)

    history: list[tuple[float, bool]] = []
    gamma_min = care_solver.gamma_search(
        problem.A, problem.B, problem.B_w, problem.C, (lo, hi), tol=tol, history=history
    )
    print("bisection history (gamma, feasible):")
    for gamma, ok in history:
        print(f"  {gamma:.9g}  {'feasible' if ok else 'infeasible'}")
    print(f"gamma_min = {gamma_min!r}")
    return EXIT_OK


def _format_matrix(mat: np.ndarray, indent: str = "    ") -> str:
    rows = []
    for row in np.atleast_2d(mat):
        rows.append(indent + "  ".join(f"{v: 9.4f}" for v in row))
    return "\n".join(rows)


def _cmd_reproduce_paper(args) -> int:
    out_lines: list[str] = []

    def emit(line: str = "") -> None:
        out_lines.append(line)

    fixtures = [
        (
            "t = 60 s design point (gamma = 20, frozen-plant experiment)",
            controller.design_point_t60(),
            controller.REFERENCE_X_T60,
            controller.REFERENCE_GAIN_T60,
        ),
        (
            "t = 100 s design point (gamma = 7.8, time-varying experiment)",
            controller.design_point_t100(),
            controller.REFERENCE_X_T100,
            None,
        ),
    ]
    emit("Reproduction report: published solution data vs this implementation")
    emit("=" * 68)
    for title, design, x_ref, k_ref in fixtures:
        problem = design.problem
        solution, gain = controller.synthesize(design)
        k_from_ref = controller.gain_from_solution(problem.B, x_ref).K[0]
        emit()
        emit(title)
        emit("  published X:")
        emit(_format_matrix(x_ref))
        emit("  computed X (weighting = measured output [0 1 0]):")
        emit(_format_matrix(solution.X))
        emit("  max elementwise |difference|: "
             f"{float(np.abs(solution.X - x_ref).max()):.4f}")
        emit("  gain from the published X (pure product B'X): "
             + "  ".join(f"{v:.4f}" for v in k_from_ref))
        if k_ref is not None:
            emit("  published gain:                              "
                 + "  ".join(f"{v:.4f}" for v in k_ref))
            emit("  max gain deviation: "
                 f"{float(np.abs(k_from_ref - k_ref).max()):.2e}")
        emit("  computed gain (this weighting): "
             + "  ".join(f"{v:.4f}" for v in gain.K[0]))
        _, implied_res = controller.implied_state_weight(
            problem.A, problem.B, problem.B_w, design.gamma, x_ref
        )
        best = controller.calibrate_state_weight(
            problem.A, problem.B, problem.B_w, design.gamma, x_ref
        )[0]
        emit(f"  published-X equation residual: best candidate weighting "
             f"{best.label} -> {best.residual:.4f}; PSD-projection floor -> "
             f"{implied_res:.2e}")
    emit()
    emit("The published X matrices are consistent only with a full (non-")
    emit("diagonal) state weighting that differs between the two design")
    emit("points and sits at the feasibility boundary, so they cannot be")
    emit("regenerated by re-solving the equation; the gain identity B'X is")
    emit("reproduced to print precision above.")

    emit()
    emit("Scenario comparison (default command and placeholder disturbances)")
    emit("-" * 68)
    names = ("paper-ltv", "paper-lti")
    overrides = {} if args.dt is None else {"dt": args.dt}
    try:
        scenarios = [simulator.BUILTIN_SCENARIOS[name](**overrides) for name in names]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # One scenario a worker; only the small Metrics come back.
    rows = list(zip(names, simulator._fan_out(lambda s: simulator.simulate(s)[1], scenarios)))
    emit(f"{'metric':<28}" + "".join(f"{name:>18}" for name, _ in rows))
    tables = [simulator.metrics_to_dict(m) for _, m in rows]
    for key in tables[0]:
        emit(f"{key:<28}" + "".join(f"{table[key]:>18.6g}" for table in tables))
    ltv_rms, lti_rms = (table["rms_e"] for table in tables)
    emit()
    emit(
        "Qualitative comparison (inspection only; the published disturbance "
        "data is not recoverable): "
        + (
            "the time-varying-plant run tracks better than the frozen-plant run "
            if ltv_rms < lti_rms
            else "the frozen-plant run tracks better than the time-varying-plant run "
        )
        + f"on these placeholder disturbances (rms_e {ltv_rms:.3e} vs {lti_rms:.3e})."
    )

    print("\n".join(out_lines))
    return EXIT_OK


# Every flag a subcommand may take.
_FLAGS = {
    "--config": dict(help="JSON configuration file"),
    "--out": dict(help=f"output directory (default ${OUT_DIR_ENV} or ./out)"),
    "--design-time": dict(type=float, help="design time on the coefficient schedule (s)"),
    "--gamma": dict(type=float, help="attenuation level"),
    "--plant-mode": dict(choices=["ltv", "lti"], help="plant evaluation mode"),
    "--feedback": dict(choices=["true", "gyro"], help="rate feedback source"),
    "--dt": dict(type=float, help="integration step (s, <= 1e-3)"),
    "--seed": dict(type=int, help="override noise seeds"),
    "--model": dict(choices=["gyro", "servo"], help="built-in model"),
    "--tol": dict(type=float, help="relative tolerance (default 1e-6)"),
    "--bracket": dict(type=float, nargs=2, metavar=("LO", "HI"), help="search bracket"),
}

# Each subcommand: its handler, the flags it reads and its help line.
_COMMANDS = {
    "synthesize": (_cmd_synthesize, "--config --out --design-time --gamma",
                   "solve the design point and write gain/X JSON"),
    "simulate": (_cmd_simulate,
                 "--config --out --design-time --gamma --plant-mode --feedback --dt --seed",
                 "run a scenario; write trace CSV and metrics JSON"),
    "norm": (_cmd_norm, "--config --model --tol",
             "H-infinity norm of a built-in or configured system"),
    "gamma-search": (_cmd_gamma_search, "--config --design-time --gamma --bracket --tol",
                     "bisect the attenuation level to feasibility"),
    "reproduce-paper": (_cmd_reproduce_paper, "--dt",
                        "compare computed X/K with the published values and run both scenarios"),
}

# The top-level config keys each subcommand reads.
_CONFIG_KEYS = {
    "synthesize": ("design", "schedule_csv"),
    "simulate": ("scenario", "design", "schedule_csv", "profile_csv", "t_span", "dt",
                 "plant_mode", "feedback", "disturbances"),
    "norm": ("system", "tol"),
    "gamma-search": ("design", "schedule_csv", "gamma_bracket", "tol"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hinf-autopilot",
        description=(
            "Robust pitch-channel autopilot toolbox: Riccati-based "
            "state-feedback synthesis, attenuation-level search, "
            "H-infinity norms, and closed-loop simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        care_solver.NoStabilizingSolution,
        care_solver.IndefiniteSolution,
        care_solver.BracketInvalid,
        controller.ClosedLoopUnstable,
        simulator.SynthesisFailed,
    ) as exc:
        return _fail("synthesis-infeasible", str(exc), EXIT_INFEASIBLE)
    except simulator.NonFiniteState as exc:
        return _fail("simulation-diverged", str(exc), EXIT_DIVERGED)
    except (ConfigError, OSError) as exc:
        return _fail("config-error", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
