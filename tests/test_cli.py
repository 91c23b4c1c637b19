"""Command-line behavior: outputs, atomicity, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hinf_autopilot import care_solver, cli, simulator, vehicle_model
from hinf_autopilot.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    build_parser,
    main,
)

UNSTABLE_SCHEDULE_CSV = (
    "t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n"
    "60,-0.054252,608.84,-6.4939,-3.4855,-0.003439,-0.18404,-1.9594\n"
    "61,-0.05,600.0,-6.5,-0.001,-0.003,80.0,-0.0001\n"
)

SHORT_LTI = {"scenario": "paper-lti", "t_span": [60.0, 61.0], "dt": 1e-3}


class TestNorm:
    def test_gyro_model(self, capsys):
        assert main(["norm", "--model", "gyro"]) == EXIT_OK
        out = capsys.readouterr().out
        value = float(out.split("=")[1])
        assert value == pytest.approx(2.0656, abs=1e-3)

    def test_servo_model(self, capsys):
        assert main(["norm", "--model", "servo"]) == EXIT_OK
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_system_from_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": {"A": [[-1.0]], "B": [[0.0]], "C": [[0.0]], "D": [[3.0]]}
        }))
        assert main(["norm", "--config", str(config)]) == EXIT_OK
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(3.0, abs=1e-5)

    def test_missing_model_is_config_error(self, capsys):
        assert main(["norm"]) == EXIT_CONFIG
        assert "error=config-error" in capsys.readouterr().err

    @pytest.mark.parametrize("system, printed", [
        # The DC gain 1e300 becomes the tested level, whose square overflows.
        ({"A": [[-1e-300]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
         "hinf_norm = 9.999999999999998e+299"),
        ({"A": [[-1.0, 1e308], [0.0, -2.0]], "B": [[1.0], [1.0]], "C": [[1.0, 1.0]],
          "D": [[0.0]]}, "hinf_norm = 5e+307"),
    ])
    def test_level_whose_square_overflows(self, tmp_path, capsys, system, printed):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"system": system}))
        assert main(["norm", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == printed


    def test_gain_past_a_double_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"system": {
            "A": [[-1e-160, 1e160], [0, -2]], "B": [[1], [1]], "C": [[-0.5, -0.5]], "D": [[1]],
        }}))
        assert main(["norm", "--config", str(config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error=config-error:"), err
        assert "w = 0.0 rad/s" in err[0]


class TestSynthesize:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "synthesize", "--out", str(out), "--design-time", "60", "--gamma", "20",
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "synthesis.json").read_text())
        assert payload["gamma"] == 20.0
        assert len(payload["X"]) == 3
        assert len(payload["K"][0]) == 3
        assert payload["riccati_residual"] < 1e-6
        assert all(re < 0 for re, _ in payload["worst_case_eigs"])

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main([
                "synthesize", "--out", str(out),
                "--design-time", "100", "--gamma", "7.8",
            ]) == EXIT_OK
        assert (out1 / "synthesis.json").read_bytes() == (out2 / "synthesis.json").read_bytes()

    def test_infeasible_level_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "synthesize", "--out", str(out), "--design-time", "60", "--gamma", "1e-6",
        ])
        assert code == EXIT_INFEASIBLE
        assert "error=synthesis-infeasible" in capsys.readouterr().err
        assert not (out / "synthesis.json").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("HINF_AUTOPILOT_OUT", str(target))
        assert main(["synthesize", "--design-time", "60", "--gamma", "20"]) == EXIT_OK
        assert (target / "synthesis.json").exists()

    def test_gamma_whose_square_overflows_solves_as_the_lqr_limit(self, tmp_path, capsys):
        # 1e160 squared overflows a double: gamma^-2 is 0, the gain of 1e150.
        for gamma in ("1e150", "1e160"):
            argv = ["synthesize", "--out", str(tmp_path / gamma), "--design-time", "100"]
            assert main([*argv, "--gamma", gamma]) == EXIT_OK
        k150, k160 = (json.loads((tmp_path / g / "synthesis.json").read_text())["K"]
                      for g in ("1e150", "1e160"))
        assert k160 == k150
        config = {"design": {"t": 100, "gamma": 1e308}, "t_span": [60, 60.01]}
        _, files = run_ok(tmp_path, capsys, "huge", "simulate", config)
        assert "trace.csv" in files

    def test_partial_design_flags_rejected(self, tmp_path, capsys):
        assert main(["synthesize", "--out", str(tmp_path), "--gamma", "5"]) == EXIT_CONFIG

    def test_default_design_point_reads_the_config_schedule(self, tmp_path):
        # The 100 s row differs from the built-in one, so the default design
        # point (100 s, gamma 7.8) must come from this schedule.
        schedule = tmp_path / "schedule.csv"
        schedule.write_text(
            "t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n"
            "60,-0.054252,608.84,-6.4939,-3.4855,-0.003439,-0.18404,-1.9594\n"
            "100,-0.0030,1500.0,-6.0,-5.0,0.0002,-0.02,-1.5\n"
        )
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schedule_csv": str(schedule)}))
        gains = {}
        explicit = ["--design-time", "100", "--gamma", "7.8"]
        for name, flags in (("default", []), ("explicit", explicit)):
            out = tmp_path / name
            argv = ["synthesize", "--config", str(config), "--out", str(out), *flags]
            assert main(argv) == EXIT_OK
            gains[name] = json.loads((out / "synthesis.json").read_text())["K"]
        assert main(["synthesize", "--out", str(tmp_path / "builtin")]) == EXIT_OK
        builtin = json.loads((tmp_path / "builtin" / "synthesis.json").read_text())["K"]
        assert gains["default"] == gains["explicit"]
        assert gains["default"] != builtin


class TestSimulate:
    def test_zero_scenario_metrics(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        profile = tmp_path / "profile.csv"
        profile.write_text("t,qc_deg_per_s\n0.0,0.0\n")
        config.write_text(json.dumps({
            "design": {"t": 60.0, "gamma": 20.0},
            "profile_csv": str(profile),
            "disturbances": {},
            "t_span": [60.0, 62.0],
            "dt": 1e-3,
            "plant_mode": "lti",
            "feedback": "true",
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert all(v == 0.0 for v in metrics.values())
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("t,int_e,e,vz")
        assert len(lines) == 2002

    def test_null_disturbances_is_absent(self, tmp_path):
        # "disturbances": null reads as the key left out: a config without
        # a scenario then has no disturbance at all.
        base = {"design": {"t": 60.0, "gamma": 20.0}, "t_span": [60.0, 61.0], "dt": 1e-3}
        metrics = []
        for name, config in (("absent", base), ("null", dict(base, disturbances=None))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
            metrics.append((out / "metrics.json").read_bytes())
        assert metrics[0] == metrics[1]
        assert json.loads(metrics[1])["energy_ratio"] == 0.0

    def test_builtin_scenario_with_overrides(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": "paper-lti", "t_span": [60.0, 62.0]}))
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", str(config), "--out", str(out), "--dt", "1e-3",
        ]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rms_e"] > 0.0

    def test_divergence_exit_code_and_no_partial_files(self, tmp_path, capsys):
        schedule = tmp_path / "schedule.csv"
        schedule.write_text(UNSTABLE_SCHEDULE_CSV)
        profile = tmp_path / "profile.csv"
        profile.write_text("t,qc_deg_per_s\n0.0,0.0\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "design": {"t": 60.0, "gamma": 20.0},
            "schedule_csv": str(schedule),
            "profile_csv": str(profile),
            "disturbances": {"channel2": [{"type": "step", "t0": 60.0, "amplitude": 0.1}]},
            "t_span": [60.0, 120.0],
            "dt": 1e-3,
            "plant_mode": "ltv",
            "feedback": "true",
        }))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert "error=simulation-diverged" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()
        assert not (out / "metrics.json").exists()
        assert not list(out.glob("*.part"))

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_bad_json(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["simulate", "--config", str(config)]) == EXIT_CONFIG

    def test_unknown_scenario_name(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": "paper-xyz"}))
        assert main(["simulate", "--config", str(config)]) == EXIT_CONFIG

    def test_seed_override_changes_noise(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "scenario": "paper-lti",
            "t_span": [60.0, 61.0],
            "dt": 1e-3,
            "disturbances": {
                "channel1": [{"type": "noise", "amplitude": 0.1, "seed": 1, "hold": 1e-3}]
            },
        }))
        outs = []
        for seed, sub in ((None, "a"), (99, "b")):
            out = tmp_path / sub
            args = ["simulate", "--config", str(config), "--out", str(out)]
            if seed is not None:
                args += ["--seed", str(seed)]
            assert main(args) == EXIT_OK
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("config, seed", [
        (None, "5"),  # no config: the flag used to switch on the default sine and step
        (SHORT_LTI, "5"),  # paper-lti's own sine and step
        (SHORT_LTI, "-3"),
        (dict(SHORT_LTI, disturbances={"channel1": [
            {"type": "sine", "amplitude": 0.1, "frequency": 1.0}]}), "5"),
        (dict(SHORT_LTI, disturbances={"channel1": [
            {"type": "noise", "amplitude": 0.1, "seed": 1}]}), "-3"),
    ])
    def test_seed_needs_a_noise_primitive(self, tmp_path, capsys, config, seed):
        out = tmp_path / "out"
        args = ["simulate", "--out", str(out), "--seed", seed]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        assert main(args) == EXIT_CONFIG
        assert "error=config-error" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_example_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("A scenario configuration is a JSON object")[1]
        config = json.loads(example.split("```json\n")[1].split("```")[0])
        schedule = tmp_path / "coeffs.csv"
        schedule.write_text("t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n" + "".join(
            ",".join(map(repr, [t, *c.as_array().tolist()])) + "\n"
            for t, c in vehicle_model.default_schedule().breakpoints))
        profile = tmp_path / "command.csv"
        profile.write_text("t,qc_deg_per_s\n0.0,0.0\n")
        # Same keys, shorter run: only the values of the example change.
        config.update(schedule_csv=str(schedule), profile_csv=str(profile),
                      t_span=[60.0, 61.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_noise_hold_below_a_tenth_of_dt_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(SHORT_LTI, disturbances={"channel1": [
            {"type": "noise", "amplitude": 0.1, "seed": 1, "hold": 1e-7}]})))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "noise hold" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_profile_csv_descriptor_exits_2(self, tmp_path, capsys):
        # A number is not a path: open() would read the descriptor's file.
        profile = tmp_path / "profile.csv"
        profile.write_text("t,qc_deg_per_s\n0.0,0.0\n")
        config = tmp_path / "cfg.json"
        fd = os.open(profile, os.O_RDONLY)
        try:
            config.write_text(json.dumps(dict(SHORT_LTI, profile_csv=fd)))
            code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        finally:
            os.close(fd)
        assert code == EXIT_CONFIG


DESIGN = {"t": 60, "gamma": 20}

#: A schedule whose 60 s plant has a B whose B B^T overflows (Mdelta = -1e200).
OVERFLOW_SCHEDULE_CSV = (
    "t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n"
    "60,-0.054252,608.84,-6.4939,-3.4855,-0.003439,-0.18404,-1e200\n"
    "100,-0.0020551,1827.8,-6.4939,-6.2007,0.0002725,-0.014108,-2.1086\n"
)


class TestMalformedConfig:
    """Wrong types and values in a config file exit 2, not with a traceback."""

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"design": {"t": [60], "gamma": 20}}),
        ("simulate", {"design": [60, 20]}),
        ("simulate", {"disturbances": {"channel1": ["sine"]}}),
        ("simulate", {"disturbances": {"channel2": 5}}),
        ("simulate", {"disturbances": {"channel1": [
            {"type": "noise", "amplitude": 1, "seed": -1}]}}),
        ("simulate", {"scenario": "paper-lti", "t_span": ["60", None]}),
        ("simulate", {"scenario": "paper-lti", "dt": [1e-3]}),
        ("simulate", {"scenario": ["paper-lti"]}),
        ("simulate", {"scenario": "paper-lti", "feedback": {"gyro": 1}}),
        ("synthesize", {"design": dict(DESIGN, weight=[[0, float("nan"), 0]])}),
        ("synthesize", {"design": dict(DESIGN, weight=[[0, "1", 0]])}),
        ("synthesize", {"design": dict(DESIGN, weight=[[[0, 1, 0]] * 3])}),
        ("synthesize", {"design": dict(DESIGN, gamma=float("inf"))}),
        ("gamma-search", {"design": DESIGN, "tol": "small"}),
        ("gamma-search", {"design": DESIGN, "gamma_bracket": 5}),
        ("gamma-search", {"design": DESIGN, "gamma_bracket": ["a", 2]}),
        ("norm", {"system": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}}),
        ("simulate", {"profile_csv": ["profile.csv"]}),
        ("simulate", {"scenario": "paper-lti", "schedule_csv": 2.5}),
        ("synthesize", {"design": DESIGN, "schedule_csv": {"path": "schedule.csv"}}),
        ("synthesize", {"design": dict(DESIGN, gamma=True)}),
        ("synthesize", {"design": dict(DESIGN, gamma="20")}),
        ("simulate", dict(SHORT_LTI, disturbances={"channel1": [
            {"type": "noise", "amplitude": 0.1, "seed": 1.9}]})),
        ("gamma-search", {"design": DESIGN, "gamma_bracket": []}),
        ("simulate", {"scenario": "paper-lti", "t_span": [60.0, 61.0], "dt": 3e-4}),
        ("synthesize", {"design": {"t": 100, "gamma": 7.8, "weight": [[0, -1e308, 0]]}}),
        ("gamma-search", {"design": {"t": 100, "gamma": 7.8, "weight": [[0, -1e308, 0]]}}),
        ("synthesize", {"design": DESIGN, "schedule_csv": "overflow.csv"}),
        ("simulate", dict(SHORT_LTI, design=DESIGN, schedule_csv="overflow.csv")),
        ("simulate", {"scenario": "paper-lti", "t_span": [60.0, 61.0, 62.0]}),
    ])
    def test_exits_2(self, tmp_path, monkeypatch, capsys, command, config):
        monkeypatch.chdir(tmp_path)  # where the relative "overflow.csv" is read
        (tmp_path / "overflow.csv").write_text(OVERFLOW_SCHEDULE_CSV)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--config", str(path)]
        if command in ("simulate", "synthesize"):  # norm and gamma-search write no files
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "error=config-error" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [
        {"scenario": "paper-lti", "t_span": [60, 9223372036854775808]},
        {"scenario": "paper-lti", "t_span": [60, 60.05], "dt": 1e-12},
    ])
    def test_step_count_above_the_cap_exits_2(self, tmp_path, capsys, config):
        # 4.6e22 and 5e10 steps: refused by the Scenario before any allocation.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error=config-error:")
        assert f"at most {simulator.MAX_STEPS:.0e}" in err[0]

    @pytest.mark.parametrize("command, config, key", [
        ("synthesize", {"gama": 3, "design": dict(DESIGN, wieght="identity")}, "'gama'"),
        ("synthesize", {"design": dict(DESIGN, wieght="identity")}, "'wieght'"),
        ("simulate", dict(SHORT_LTI, seed=5, sedd=1), "'sedd'"),
        ("simulate", dict(SHORT_LTI, disturbances={"chanel1": [
            {"type": "step", "t0": 60.0, "amplitude": 0.1}]}), "'chanel1'"),
        ("simulate", dict(SHORT_LTI, disturbances={"channel1": [
            {"type": "sine", "amplitude": 0.1, "frequency": 1.0, "phse": 1.0}]}), "'phse'"),
        ("norm", {"system": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                             "E": [[1.0]]}}, "'E'"),
        ("gamma-search", {"design": DESIGN, "bracket": [0.1, 100.0]}, "'bracket'"),
    ])
    def test_unread_key_is_named(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--config", str(path)]
        if command in ("simulate", "synthesize"):
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error=config-error: unknown" in err and key in err
        assert not out.exists()

    def test_bad_step_for_reproduce_paper(self, capsys):
        assert main(["reproduce-paper", "--dt", "0.5"]) == EXIT_CONFIG

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(scenario, handle):
            raise ValueError("internal fault")

        monkeypatch.setattr(simulator, "simulate_to_csv", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["simulate", "--config", short_simulate_config(tmp_path),
                  "--out", str(tmp_path / "out")])


def run_ok(tmp_path, capsys, name, command, config, flags=()):
    """(stdout, {file: bytes}) of `command` on `config` and `flags`; it must exit 0."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    argv = [command, "--config", str(path), *flags]
    if command in ("simulate", "synthesize"):
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return stdout, files


SINE = {"type": "sine", "amplitude": 0.1, "frequency": 1.0}
STEP = {"type": "step", "t0": 60.5, "amplitude": 0.1}


class TestNullIsAbsent:
    """A null value reads as its key left out, at every level of the config."""

    @pytest.mark.parametrize("command, with_null, without", [
        ("simulate", dict(SHORT_LTI, design=None), SHORT_LTI),
        ("gamma-search", {"design": DESIGN, "gamma_bracket": None}, {"design": DESIGN}),
        ("gamma-search", {"design": DESIGN, "tol": None}, {"design": DESIGN}),
        ("synthesize", {"design": dict(DESIGN, weight=None)}, {"design": DESIGN}),
        ("simulate", dict(SHORT_LTI, disturbances={"channel1": [dict(SINE, phase=None)]}),
         dict(SHORT_LTI, disturbances={"channel1": [SINE]})),
        ("simulate", dict(SHORT_LTI, disturbances={"channel1": None, "channel2": [STEP]}),
         dict(SHORT_LTI, disturbances={"channel2": [STEP]})),
    ])
    def test_null_reads_as_absent(self, tmp_path, capsys, command, with_null, without):
        assert (run_ok(tmp_path, capsys, "null", command, with_null)
                == run_ok(tmp_path, capsys, "absent", command, without))


class TestFlagsOverConfig:
    """A flag sets the config value it overrides before any value is read."""

    @pytest.mark.parametrize("command, config, flags, other", [
        ("simulate",
         {"design": {"t": 80.0, "gamma": 9.0}, "plant_mode": "lti", "feedback": "true",
          "dt": 5e-4},
         ["--design-time", "80", "--gamma", "9", "--plant-mode", "lti", "--feedback", "true",
          "--dt", "5e-4"],
         {"design": {"t": 60.0, "gamma": 20.0}, "plant_mode": "ltv", "feedback": "gyro",
          "dt": 1e-3}),
        ("gamma-search",
         {"design": {"t": 73.5}, "gamma_bracket": [0.01, 100.0], "tol": 1e-4},
         ["--design-time", "73.5", "--bracket", "0.01", "100", "--tol", "1e-4"],
         {"design": {"t": 60.0}, "gamma_bracket": [0.1, 1000.0], "tol": 1e-2}),
    ])
    def test_flags_equal_config_keys(self, tmp_path, capsys, command, config, flags, other):
        base = {"t_span": [60.0, 61.0]} if command == "simulate" else {}
        from_config = run_ok(tmp_path, capsys, "config", command, dict(base, **config))
        assert run_ok(tmp_path, capsys, "flags", command, base, flags) == from_config
        # Over other values of the same keys the flags still give the same bytes,
        # and those other values alone do not.
        assert run_ok(tmp_path, capsys, "over", command, dict(base, **other), flags) == from_config
        assert run_ok(tmp_path, capsys, "other", command, dict(base, **other)) != from_config


NAN_TIME_SCHEDULE_CSV = (
    "t,Zv,Zq,Ztheta,Zdelta,Mv,Mq,Mdelta\n"
    "60,-0.054252,608.84,-6.4939,-3.4855,-0.003439,-0.18404,-1.9594\n"
    "nan,-0.0020551,1827.8,-6.4939,-6.2007,0.0002725,-0.014108,-2.1086\n"
)


class TestNonFiniteInput:
    @pytest.mark.parametrize("command, config, flags, message", [
        ("synthesize", {"schedule_csv": "SCHEDULE"}, [], "breakpoint times must be finite"),
        ("gamma-search", {"schedule_csv": "SCHEDULE"}, ["--design-time", "60"],
         "breakpoint times must be finite"),
        ("simulate", dict(SHORT_LTI, schedule_csv="SCHEDULE"), [],
         "breakpoint times must be finite"),
        ("simulate", dict(SHORT_LTI, profile_csv="PROFILE"), [],
         "breakpoint times must be finite"),
        ("simulate", dict(SHORT_LTI, t_span=[60.0, 1e308]), [], "t_span"),
        ("simulate", SHORT_LTI, ["--dt", "nan"], "dt must be a finite number"),
    ])
    def test_exits_2(self, tmp_path, capsys, command, config, flags, message):
        schedule = tmp_path / "schedule.csv"
        schedule.write_text(NAN_TIME_SCHEDULE_CSV)
        profile = tmp_path / "profile.csv"
        profile.write_text("t,qc_deg_per_s\n0.0,0.0\nnan,1.0\n")
        paths = {"SCHEDULE": str(schedule), "PROFILE": str(profile)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: paths.get(v, v) if isinstance(v, str) else v
                                    for k, v in config.items()}))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), *flags]
        if command in ("simulate", "synthesize"):
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error=config-error" in err and message in err
        assert not out.exists()


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def short_simulate_config(tmp_path, t_span=(60.0, 62.0)) -> str:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": "paper-lti", "t_span": list(t_span), "dt": 1e-3}))
    return str(config)


class TestOutputFiles:
    def test_modes_follow_umask(self, tmp_path, umask_022):
        out = tmp_path / "out"
        assert main(["synthesize", "--out", str(out)]) == EXIT_OK
        assert main([
            "simulate", "--config", short_simulate_config(tmp_path), "--out", str(out),
        ]) == EXIT_OK
        for name in ("trace.csv", "metrics.json", "synthesis.json"):
            assert os.stat(out / name).st_mode & 0o777 == 0o644, name

    def test_failed_write_leaves_nothing(self, tmp_path, umask_022):
        path = tmp_path / "data.txt"

        def write(tmp):
            with open(tmp, "w") as handle:
                handle.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(str(path), write)
        assert list(tmp_path.iterdir()) == []

    def test_trace_worker_failure_leaves_no_files(self, tmp_path, monkeypatch):
        parent = os.getpid()
        format_block = simulator._format_block

        def fail_in_worker(cols):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return format_block(cols)

        monkeypatch.setattr(simulator, "_worker_count", lambda: 2)
        monkeypatch.setattr(simulator, "_format_block", fail_in_worker)
        out = tmp_path / "out"
        # 10 001 rows: three ring slots of 4096, so the forked formatters run.
        config = short_simulate_config(tmp_path, t_span=(60.0, 70.0))
        with pytest.raises(RuntimeError, match="formatting failed"):
            main(["simulate", "--config", config, "--out", str(out)])
        assert list(out.iterdir()) == []


class TestGammaSearch:
    def test_prints_history_and_result(self, capsys):
        code = main([
            "gamma-search", "--design-time", "100", "--gamma", "7.8",
            "--bracket", "0.01", "1000", "--tol", "1e-6",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "bisection history" in out
        assert "gamma_min = " in out
        value = float(out.rsplit("=", 1)[1])
        assert 0.0 < value <= 7.8

    def test_history_is_the_library_search(self, capsys):
        argv = ["gamma-search", "--design-time", "60", "--gamma", "20",
                "--bracket", "0.1", "100", "--tol", "1e-4"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        config = cli._load_config(cli.build_parser().parse_args(argv))
        design = cli._design_from_config(config, "gamma-search")
        plant = vehicle_model.assemble_pitch_plant(design.coeffs)
        history = []
        gamma_min = care_solver.gamma_search(
            plant.A, plant.B, plant.B_w, design.C_perf, (0.1, 100.0), tol=1e-4,
            history=history,
        )
        assert lines == (
            ["bisection history (gamma, feasible):"]
            + [f"  {g:.9g}  {'feasible' if ok else 'infeasible'}" for g, ok in history]
            + [f"gamma_min = {gamma_min!r}"]
        )
        assert history[0] == (100.0, True) and history[1] == (0.1, False)

    def test_reversed_bracket_is_rejected(self, capsys, monkeypatch):
        raised = []
        search = care_solver.gamma_search

        def spy(*args, **kwargs):
            try:
                return search(*args, **kwargs)
            except care_solver.BracketInvalid as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(care_solver, "gamma_search", spy)
        code = main([
            "gamma-search", "--design-time", "60", "--gamma", "20", "--bracket", "2", "1",
        ])
        assert code == EXIT_INFEASIBLE
        assert len(raised) == 1
        captured = capsys.readouterr()
        assert "gamma_min" not in captured.out
        assert "error=synthesis-infeasible" in captured.err

    def test_design_time_without_gamma(self, capsys):
        argv = ["gamma-search", "--design-time", "60", "--tol", "1e-4"]
        assert main(argv) == EXIT_OK
        result = capsys.readouterr().out.splitlines()[-1]
        assert main(argv + ["--gamma", "20"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == result
        assert result.startswith("gamma_min = ")

    @pytest.mark.parametrize("flags", [
        ["--design-time", "60", "--gamma", "-1"],
        ["--gamma", "5"],
    ])
    def test_unused_gamma_is_still_checked(self, capsys, flags):
        assert main(["gamma-search", *flags]) == EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err

    def test_non_positive_tol_is_config_error(self, capsys):
        code = main(["gamma-search", "--design-time", "60", "--gamma", "20", "--tol", "0"])
        assert code == EXIT_CONFIG
        assert "tol must be positive" in capsys.readouterr().err


class TestReproducePaper:
    def test_report_contains_published_gain(self, capsys):
        assert main(["reproduce-paper", "--dt", "1e-3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1.4141" in out
        assert "1.5804" in out
        assert "0.0024" in out
        assert "paper-ltv" in out and "paper-lti" in out
        assert "Qualitative comparison" in out

    def test_stdout_is_the_same_in_process_and_forked(self, monkeypatch, capsys):
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(simulator, "_worker_count", lambda w=workers: w)
            assert main(["reproduce-paper", "--dt", "1e-3"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_divergence_in_a_worker_exits_4(self, monkeypatch, capsys):
        # The worker's NonFiniteState crosses the process boundary pickled.
        def diverging(**overrides):
            # The unstable schedule of test_divergence_exit_code_and_no_partial_files.
            wild = vehicle_model.DynamicCoefficients(
                Z_v=-0.05, Z_q=600.0, Z_theta=-6.5, Z_delta=-0.001,
                M_v=-0.003, M_q=80.0, M_delta=-0.0001,
            )
            schedule = vehicle_model.CoefficientSchedule(
                ((60.0, vehicle_model.PITCH_COEFFS_T60), (61.0, wild)))
            return simulator.scenario_paper_lti(schedule=schedule, plant_mode="ltv", **overrides)

        parent = os.getpid()
        simulate = simulator.simulate

        def simulate_in_worker(scenario):
            assert os.getpid() != parent
            return simulate(scenario)

        monkeypatch.setattr(simulator, "_worker_count", lambda: 2)
        monkeypatch.setattr(simulator, "simulate", simulate_in_worker)
        monkeypatch.setitem(simulator.BUILTIN_SCENARIOS, "paper-lti", diverging)
        assert main(["reproduce-paper", "--dt", "1e-3"]) == EXIT_DIVERGED
        assert "error=simulation-diverged: state became non-finite" in capsys.readouterr().err


class TestParser:
    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--out", "--gamma", "--design-time",
                     "--plant-mode", "--feedback", "--dt", "--seed"):
            assert flag in out

    def test_unknown_flag_is_hard_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, unread", [
        (["norm", "--model", "servo", "--out", "OUT", "--dt", "5", "--plant-mode", "lti",
          "--feedback", "true", "--gamma", "3", "--seed", "-3"],
         ["--out", "--dt", "--plant-mode", "--feedback", "--gamma", "--seed"]),
        (["synthesize", "--design-time", "100", "--gamma", "7.8", "--dt", "99",
          "--seed", "-1", "--feedback", "true"], ["--dt", "--seed", "--feedback"]),
        (["gamma-search", "--design-time", "60", "--gamma", "20", "--out", "OUT",
          "--seed", "-9"], ["--out", "--seed"]),
        (["reproduce-paper", "--dt", "1e-3", "--config", "/nonexistent.json"], ["--config"]),
    ])
    def test_flag_the_command_does_not_read_is_hard_error(
        self, tmp_path, monkeypatch, capsys, argv, unread
    ):
        monkeypatch.setenv("HINF_AUTOPILOT_OUT", str(tmp_path / "env"))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([str(out) if arg == "OUT" else arg for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in unread)
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_is_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


def test_import_loads_no_process_pool():
    # The fork machinery of the trace writer is imported only when it forks.
    code = ("import sys, hinf_autopilot.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
