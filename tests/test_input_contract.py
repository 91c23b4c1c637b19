"""Every input ends in exit 0, 2, 3 or 4: a seeded fuzzer of the CLI's inputs.

One valid base config per subcommand (and one schedule and one command
profile CSV) is mutated with stdlib `random`: one or two of its values are
set to an odd value, or deleted, or one or two CSV cells are replaced.  Each
case runs through `cli.main` in process.  It must return 0, 2, 3 or 4 and
raise nothing, a numpy RuntimeWarning included.  A failure writes only its
one `error=<code>:` line to stderr (exit 2 writes `error=config-error:`), and
a success writes nothing there.  The public constructors either build or raise
ValueError on the same odd values.  The inputs that once escaped as a
traceback are named regression cases below the fuzzer.
"""

from __future__ import annotations

import copy
import json
import math
import random
import warnings

import numpy as np
import pytest

from hinf_autopilot import care_solver, controller, simulator, vehicle_model
from hinf_autopilot.care_solver import CareProblem, StateSpace
from hinf_autopilot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INFEASIBLE, EXIT_OK, main

ODD_NUMBERS = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 2**63, -(2**63), 0, -0.0, -1, 1, 0.5,
    5e-324, 1e-300, 1e-160, -1e-160, 1e160, 1e-12, 1e12, True,
]
ODD_VALUES = ODD_NUMBERS + [None, False, "", "x", "nan", [], {}, [1], [[1]], [[]],
                            [[math.nan]], [[1e308, 1]], {"a": 1}]
ODD_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "5e-324", "1e-300", "1e-160",
             "-1e-160", "1e160", "-1e200", "0", "-0", "", "x", "60", "100"]

STATUS = {EXIT_CONFIG: "config-error", EXIT_INFEASIBLE: "synthesis-infeasible",
          EXIT_DIVERGED: "simulation-diverged"}

#: Steps a fuzzed simulate may take; more exit 2 through Scenario's step cap,
#: so a mutated t_span or dt cannot make the seeded run slow.
FUZZ_MAX_STEPS = 10_000


def schedule_rows() -> list[list[str]]:
    rows = [["t", "Zv", "Zq", "Ztheta", "Zdelta", "Mv", "Mq", "Mdelta"]]
    for t, coeffs in vehicle_model.default_schedule().breakpoints:
        rows.append([repr(t)] + [repr(v) for v in coeffs.as_array().tolist()])
    return rows


def profile_rows() -> list[list[str]]:
    rows = [["t", "qc_deg_per_s"]]
    for t, q in vehicle_model.default_command_profile().breakpoints:
        rows.append([repr(t), repr(math.degrees(q))])
    return rows


def base_configs(schedule: str, profile: str) -> dict:
    """One valid config per subcommand that takes one."""
    return {
        "synthesize": {
            "design": {"t": 60, "gamma": 20, "weight": [[0, 1, 0]]},
            "schedule_csv": schedule,
        },
        "simulate": {
            "scenario": "paper-lti", "t_span": [60, 60.5], "dt": 1e-3,
            "design": {"t": 60, "gamma": 20, "weight": "measurement"},
            "feedback": "gyro", "plant_mode": "lti",
            "disturbances": {
                "channel1": [{"type": "sine", "amplitude": 0.02, "frequency": 2.0, "phase": 0.0},
                             {"type": "noise", "amplitude": 0.01, "seed": 3, "hold": 1e-3}],
                "channel2": [{"type": "step", "t0": 60.2, "amplitude": 0.05},
                             {"type": "ramp", "t0": 60.1, "slope": 0.01}],
            },
            "schedule_csv": schedule, "profile_csv": profile,
        },
        "norm": {  # 1 - 0.5 / (s + 1) - 0.5 / (s + 2): the norm is its D, 1
            "system": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [1.0]],
                       "C": [[-0.5, -0.5]], "D": [[1.0]]},
            "tol": 1e-6,
        },
        "gamma-search": {
            "design": {"t": 100, "weight": "measurement"},
            "gamma_bracket": [0.01, 1000], "tol": 1e-3, "schedule_csv": schedule,
        },
    }


def paths(node, prefix=()):
    """Every key or index path below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from paths(child, prefix + (key,))


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutate(rng: random.Random, config: dict) -> dict:
    """A copy of config with one or two of its values replaced by odd ones or deleted.

    A number is mostly replaced by an odd number, so most cases get past the
    config's type checks into the numerics.
    """
    config = copy.deepcopy(config)
    for _ in range(rng.choice((1, 2))):
        *outer, key = rng.choice(list(paths(config)))
        parent = config
        for name in outer:
            parent = parent[name]
        if isinstance(parent, dict) and rng.random() < 0.1:
            del parent[key]
        else:
            odd = ODD_NUMBERS if is_number(parent[key]) and rng.random() < 0.8 else ODD_VALUES
            parent[key] = copy.deepcopy(rng.choice(odd))
        if not config:
            break
    return config


def write_csv(path, rows) -> str:
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


def mutate_cells(rng: random.Random, rows) -> list[list[str]]:
    """A copy of the CSV rows with one or two cells below the header replaced by odd ones."""
    rows = copy.deepcopy(rows)
    for _ in range(rng.choice((1, 2))):
        row = rows[rng.randrange(1, len(rows))]
        row[rng.randrange(len(row))] = rng.choice(ODD_CELLS)
    return rows


def run_case(capsys, argv) -> str | None:
    """What broke the contract in one run of main(argv), or None."""
    capsys.readouterr()
    try:
        status = main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - any escape is a finding
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if status == EXIT_OK:
        return f"exit 0 wrote {err!r}" if err else None
    if status not in STATUS:
        return f"returned {status!r}"
    lines = err.splitlines()
    if len(lines) != 1 or not lines[0].startswith(f"error={STATUS[status]}: "):
        return f"exit {status} wrote {err!r}"
    return None


def fuzz_cases(rng: random.Random, tmp_path, n_config: int, n_cells: int):
    """(argv, description) of n_config config mutations and n_cells CSV-cell mutations."""
    schedule = write_csv(tmp_path / "schedule.csv", schedule_rows())
    profile = write_csv(tmp_path / "profile.csv", profile_rows())
    bases = base_configs(schedule, profile)
    out = str(tmp_path / "out")
    config_path = tmp_path / "case.json"

    def argv(command, config):
        config_path.write_text(json.dumps(config))
        flags = ["--out", out] if command in ("synthesize", "simulate") else []
        return [command, "--config", str(config_path), *flags]

    for _ in range(n_config):
        command = rng.choice(sorted(bases))
        config = mutate(rng, bases[command])
        yield argv(command, config), f"{command} {json.dumps(config)}"
    for _ in range(n_cells):
        command = rng.choice(("synthesize", "simulate", "gamma-search"))
        which, rows = rng.choice((("schedule_csv", schedule_rows()), ("profile_csv", profile_rows())))
        if command != "simulate":
            which, rows = "schedule_csv", schedule_rows()
        rows = mutate_cells(rng, rows)
        config = dict(bases[command], **{which: write_csv(tmp_path / "cells.csv", rows)})
        yield argv(command, config), f"{command} with {which} {rows!r}"


@pytest.mark.parametrize("seed", range(9))
def test_every_mutated_input_exits_0_2_3_or_4(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setattr(simulator, "MAX_STEPS", FUZZ_MAX_STEPS)
    rng = random.Random(seed)
    findings = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning escapes as a finding
        for argv, what in fuzz_cases(rng, tmp_path, n_config=80, n_cells=40):
            finding = run_case(capsys, argv)
            if finding is not None:
                findings.append(f"{what}: {finding}")
    assert findings == []


def odd_matrix(rng: random.Random, base: np.ndarray) -> list:
    """base with one or two entries set to odd numbers, or its shape changed."""
    out = base.tolist()
    if rng.random() < 0.1:
        return rng.choice(([], [[]], [[1.0]], base.T.tolist(), [row + [0.0] for row in out]))
    for _ in range(rng.choice((1, 2))):
        row = rng.choice(out)
        row[rng.randrange(len(row))] = rng.choice(ODD_NUMBERS)
    return out


def constructors(rng: random.Random):
    """(name, callable) of the public constructors with one odd argument each."""
    odd = lambda: rng.choice(ODD_NUMBERS)  # noqa: E731
    coeffs = vehicle_model.PITCH_COEFFS_T60
    plant = vehicle_model.assemble_pitch_plant(coeffs)
    system = dict(A=np.array([[-1.0, 2.0], [0.0, -3.0]]), B_in=np.array([[1.0], [0.5]]),
                  C_out=np.array([[1.0, 1.0]]), D_ff=np.array([[0.5]]))
    problem = dict(A=plant.A, B=plant.B, B_w=plant.B_w, C=controller.MEASUREMENT_WEIGHT,
                   gamma=20.0)
    primitives = dict(
        step=(simulator.Step, dict(t0=60.0, amplitude=0.1)),
        sine=(simulator.Sine, dict(amplitude=0.02, frequency=2.0, phase=0.0)),
        ramp=(simulator.Ramp, dict(t0=60.0, slope=0.01)),
        noise=(simulator.Noise, dict(amplitude=0.01, seed=3, hold=1e-3)),
    )
    design = dict(t_design=60.0, gamma=20.0, coeffs=coeffs, C_perf=[[0.0, 1.0, 0.0]])
    scenario = dict(design=controller.design_point_t60(), t_span=(60.0, 61.0), dt=1e-3)

    def with_one(fields: dict, matrix_names=()) -> dict:
        fields = dict(fields)
        name = rng.choice(sorted(fields))
        fields[name] = (odd_matrix(rng, np.asarray(fields[name])) if name in matrix_names
                        else odd())
        return fields

    for name, (cls, fields) in primitives.items():
        yield name, lambda cls=cls, f=with_one(fields): cls(**f)
        prim = lambda cls=cls, f=fields: cls(**with_one(f))  # noqa: E731
        yield f"disturbances of {name}", lambda p=prim: simulator.DisturbanceSpec(
            channel1=(p(),), channel2=(p(),))
    yield "StateSpace", lambda f=with_one(system, tuple(system)): StateSpace(**f)
    yield "CareProblem", lambda f=with_one(problem, ("A", "B", "B_w", "C")): CareProblem(**f)
    yield "DesignPoint", lambda f=with_one(design, ("C_perf",)): controller.DesignPoint(**f)
    span = [60.0, 61.0]
    span[rng.randrange(2)] = odd()
    for fields in (dict(scenario, t_span=tuple(span)), dict(scenario, t_span=(odd(),)),
                   dict(scenario, t_span=(60.0, 61.0, odd())), dict(scenario, dt=odd()),
                   dict(scenario, servo_tau=odd()), dict(scenario, servo_rate_limit=odd())):
        yield "Scenario", lambda f=fields: simulator.Scenario(**f)


@pytest.mark.parametrize("seed", range(4))
def test_public_constructors_build_or_raise_value_error(seed):
    rng = random.Random(seed)
    findings = []
    for _ in range(30):
        for name, build in constructors(rng):
            try:
                build()
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other type is a finding
                findings.append(f"{name}: {type(exc).__name__}: {exc}")
    assert findings == []


# ---------------------------------------------------------------------------
# Named regression cases: each escaped as a traceback (exit 1) before.


@pytest.fixture
def run(tmp_path, capsys):
    """main(argv), with a config and --out in tmp_path; returns (status, stdout, stderr)."""

    def run(*argv, config=None):
        argv = list(argv)
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        if argv[0] in ("synthesize", "simulate"):
            argv += ["--out", str(tmp_path / "out")]
        status = main(argv)
        out, err = capsys.readouterr()
        return status, out, err

    return run


class TestGammaWhoseInverseSquareTermOverflows:
    """gamma^-2 B_w B_w' overflows: an infeasible level, not a LinAlgError."""

    @pytest.mark.parametrize("gamma", ["1e-160", "7.4e-155", "5e-324"])
    def test_synthesize_exits_3(self, run, gamma):
        status, _, err = run("synthesize", "--design-time", "60", "--gamma", gamma)
        assert status == EXIT_INFEASIBLE
        assert err.startswith("error=synthesis-infeasible: ")

    def test_gamma_search_with_such_a_bracket_exits_3(self, run):
        status, _, err = run("gamma-search", "--design-time", "60", "--bracket", "1e-300", "1e-200")
        assert status == EXIT_INFEASIBLE
        assert "upper bracket end" in err

    def test_simulate_exits_3(self, run):
        status, _, err = run("simulate", config={
            "scenario": "paper-lti", "t_span": [60, 60.1], "dt": 1e-3,
            "design": {"t": 100, "gamma": 1e-200}})
        assert status == EXIT_INFEASIBLE
        assert err.startswith("error=synthesis-infeasible: design-point synthesis failed")

    @pytest.mark.parametrize("gamma", [1e-160, 1e-200, 5e-324])
    def test_solve_care_raises_no_stabilizing_solution(self, gamma):
        plant = vehicle_model.assemble_pitch_plant(vehicle_model.PITCH_COEFFS_T60)
        problem = CareProblem(plant.A, plant.B, plant.B_w, controller.MEASUREMENT_WEIGHT, gamma)
        with pytest.raises(care_solver.NoStabilizingSolution, match="overflows"):
            care_solver.solve_care(problem)

    def test_gamma_search_refuses_such_an_upper_end(self):
        plant = vehicle_model.assemble_pitch_plant(vehicle_model.PITCH_COEFFS_T60)
        with pytest.raises(care_solver.BracketInvalid, match="upper bracket end"):
            care_solver.gamma_search(plant.A, plant.B, plant.B_w, controller.MEASUREMENT_WEIGHT,
                                     (1e-300, 1e-200))

    @pytest.mark.parametrize("gamma", [1e-200, 5e-324])
    def test_zero_disturbance_input_is_the_lqr_limit(self, gamma):
        # G stays BB' when B_w B_w' is all zero, even where gamma^2 underflows.
        A, B, C = np.array([[-1.0, 0.0], [0.0, -2.0]]), np.array([[1.0], [1.0]]), np.eye(2)
        solution = care_solver.solve_care(CareProblem(A, B, np.zeros((2, 1)), C, gamma))
        assert np.array_equal(solution.X, care_solver.solve_lqr(A, B, C).X)


class TestNormBelowTheFloatSpacing:
    """tol below the float spacing where the norm is sigma_max(D)."""

    SYSTEM = {"A": [[-1.0]], "B": [[1.0]], "C": [[-0.5]], "D": [[1.0]]}

    @pytest.mark.parametrize("tol", ["1e-16", "1e-17", "5e-324"])
    def test_cli_prints_one(self, run, tol):
        status, out, _ = run("norm", "--tol", tol, config={"system": self.SYSTEM})
        assert status == EXIT_OK
        assert out.strip() == "hinf_norm = 1.0"

    @pytest.mark.parametrize("tol", [1e-16, 1e-17, 5e-324])
    def test_library_returns_one(self, tol):
        system = StateSpace(*(np.array(self.SYSTEM[k]) for k in "ABCD"))
        assert care_solver.hinf_norm(system, tol=tol) == 1.0


class TestStateSpaceWhoseProductsOverflow:
    """A non-finite BB', C'C or D'D is refused: ValueError, exit 2 from norm."""

    A = [[-1.0, 0.0], [0.0, -2.0]]
    CASES = {
        "D_ff' D_ff": dict(B=[[1.0], [1.0]], C=[[1.0, 1.0]], D=[[1e308]]),
        "C_out' C_out": dict(B=[[1.0], [1.0]], C=[[1.0, 1e308]], D=[[0.0]]),
        "B_in B_in'": dict(B=[[-1e308], [1.0]], C=[[1.0, 1.0]], D=[[0.0]]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_constructor_raises_value_error(self, name):
        case = self.CASES[name]
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            StateSpace(self.A, case["B"], case["C"], case["D"])

    @pytest.mark.parametrize("name", CASES)
    def test_norm_exits_2(self, run, name):
        status, _, err = run("norm", config={"system": dict(A=self.A, **self.CASES[name])})
        assert status == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error=config-error: ")


class TestOverflowFoundByMoreSeeds:
    """Inputs found by fuzz seeds past the nine above: each warned, and now writes one line."""

    def test_sine_whose_argument_overflows_exits_4(self, run):
        status, _, err = run("simulate", config={
            "scenario": "paper-lti", "t_span": [60, 60.01], "dt": 1e-3,
            "disturbances": {"channel1": [{"type": "sine", "amplitude": 0.02,
                                           "frequency": 1e308}]}})
        assert status == EXIT_DIVERGED
        assert err.count("\n") == 1 and err.startswith("error=simulation-diverged: ")

    def test_profile_whose_integral_overflows_exits_2(self, run, tmp_path):
        # Was exit 4: the command's integral was inf, so the first step diverged.
        profile = tmp_path / "profile.csv"
        profile.write_text("t,qc_deg_per_s\n-1e200,0.0\n2.0,1e308\n")
        status, _, err = run("simulate", config={
            "scenario": "paper-lti", "t_span": [60, 60.01], "dt": 1e-3,
            "profile_csv": str(profile)})
        assert status == EXIT_CONFIG
        assert err == ("error=config-error: profile_csv: "
                       "the command profile's integral overflows a double\n")
