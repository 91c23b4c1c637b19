"""Golden outputs: the bytes of the shipped commands, pinned in tests/golden.json.

Each entry is one output of `cli.main`: a simulate run's trace.csv and
metrics.json (short runs, and one of 50 000 steps whose metrics sum
several blocks), both shipped design points' synthesis.json, and the
reproduce-paper --dt 1e-3 stdout.  On the platform the manifest was
recorded on (its numpy version and machine), every output must have the
recorded sha256, and a mismatch names the columns whose summaries moved.
Elsewhere numpy's SIMD kernels and BLAS may round differently, so each
column's summary is compared within RTOL of the column's largest
magnitude (a printed number also within one unit of the last digit of
the more precise of its two printings).

After a deliberate change of bits, regenerate the manifest and say in
CHANGES.md which entries changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from hinf_autopilot import cli

GOLDEN = Path(__file__).with_name("golden.json")

#: Tolerance of a summary off the recorded platform, relative to the
#: largest magnitude in its column: rounding that differs in the last bits
#: stays far below it in the stable closed loop.
RTOL = 1e-6

_NOISE = {"type": "noise", "amplitude": 0.01, "seed": 7, "hold": 7e-4}

#: simulate configs.  At dt = 2e-4 a chunk of 2048 steps is 0.4096 s, so the
#: noise hold 7e-4 s straddles the first chunk boundary (60.4096 s).
SIMULATE_CASES = {
    "ltv-last-breakpoint": {"scenario": "paper-ltv", "t_span": [99.6, 100.4]},
    "ltv-table-reuse": {"scenario": "paper-ltv", "t_span": [120.0, 122.0]},
    "lti": {"scenario": "paper-lti", "t_span": [89.8, 90.4]},
    "true-state": {"scenario": "paper-ltv", "t_span": [60.0, 60.8], "feedback": "true"},
    "four-primitives": {"scenario": "paper-ltv", "t_span": [60.0, 61.0], "disturbances": {
        "channel1": [{"type": "sine", "amplitude": 0.02, "frequency": 3.0, "phase": 0.5},
                     _NOISE],
        "channel2": [{"type": "step", "t0": 60.3, "amplitude": 0.01},
                     {"type": "ramp", "t0": 60.5, "slope": -0.02}]}},
    "rate-saturated": {"scenario": "paper-ltv", "t_span": [60.0, 61.0], "disturbances": {
        "channel2": [{"type": "step", "t0": 60.2, "amplitude": 0.5}]}},
    "dt-1e-3": {"scenario": "paper-ltv", "t_span": [60.0, 70.0], "dt": 1e-3},
    # 50 000 steps: the one run longer than a block of the metrics' sums (32 768 steps).
    "ltv-multi-block": {"scenario": "paper-ltv", "t_span": [60.0, 70.0]},
}

SYNTHESIZE_CASES = {"t60": ["--design-time", "60", "--gamma", "20"],
                    "t100": ["--design-time", "100", "--gamma", "7.8"]}

#: Summary keys left out: the Riccati residual is the solve's rounding,
#: so only its sha256 (on the recorded platform) pins it.
_UNSUMMARIZED = {"riccati_residual"}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def platform_key() -> str:
    return f"numpy {np.__version__} {platform.machine()}"


def _run(argv: list[str]) -> bytes:
    """The stdout of cli.main(argv), which must exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(argv)
    assert status == cli.EXIT_OK, f"{argv} exited {status}"
    return stdout.getvalue().encode()


def produce(work: Path) -> dict[str, bytes]:
    """Every pinned output, by entry name, from runs in the directory `work`."""
    outputs = {}
    for name, config in SIMULATE_CASES.items():
        path, out = work / f"{name}.json", work / name
        path.write_text(json.dumps(config))
        _run(["simulate", "--config", str(path), "--out", str(out)])
        for file in ("trace.csv", "metrics.json"):
            outputs[f"simulate/{name}/{file}"] = (out / file).read_bytes()
    for name, flags in SYNTHESIZE_CASES.items():
        out = work / f"synthesize-{name}"
        _run(["synthesize", *flags, "--out", str(out)])
        outputs[f"synthesize/{name}/synthesis.json"] = (out / "synthesis.json").read_bytes()
    outputs["reproduce-paper/stdout"] = _run(["reproduce-paper", "--dt", "1e-3"])
    return outputs


def _flatten(value) -> list[float]:
    if isinstance(value, list):
        return [v for item in value for v in _flatten(item)]
    return [float(value)] if isinstance(value, (int, float)) else []


def summarize(name: str, data: bytes) -> dict[str, list]:
    """Per-column summaries of one output.

    A CSV column gives its min, max, mean, rms and last value; a JSON key
    its numbers; a line of text its number tokens, keyed by its line number
    and its words (spacing collapsed, as a sign may shift it).
    """
    text = data.decode()
    if name.endswith(".csv"):
        header, _, body = text.partition("\n")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        return {column: [float(v) for v in (c.min(), c.max(), c.mean(),
                                             np.sqrt(np.mean(c * c)), c[-1])]
                for column, c in zip(header.split(","), table.T)}
    if name.endswith(".json"):
        return {key: _flatten(value) for key, value in json.loads(text).items()
                if key not in _UNSUMMARIZED}
    return {f"{i:02d} {' '.join(_NUMBER.sub('#', line).split())}": _NUMBER.findall(line)
            for i, line in enumerate(text.splitlines())}


def _unit(value) -> float:
    """One unit in the last printed digit of a number token; 0 for a float."""
    return 10.0 ** decimal.Decimal(value).as_tuple().exponent if isinstance(value, str) else 0.0


def deviations(recorded: dict, current: dict, rtol: float) -> list[str]:
    """A line per column whose summary moved by more than rtol of its scale."""
    problems = []
    for column in sorted(recorded.keys() | current.keys()):
        a, b = recorded.get(column), current.get(column)
        if a is None or b is None or len(a) != len(b):
            problems.append(f"column {column!r}: recorded {a}, now {b}")
            continue
        scale = max(abs(float(v)) for v in a + b) if a else 0.0
        moved = [(abs(float(x) - float(y)) / (scale or 1.0), i)
                 for i, (x, y) in enumerate(zip(a, b))
                 if abs(float(x) - float(y)) > rtol * scale + min(_unit(x), _unit(y))]
        if moved:
            worst, i = max(moved)
            problems.append(f"column {column!r}: item {i} moved by {worst:.3g} of the "
                            f"column's scale (recorded {a[i]!r}, now {b[i]!r})")
    return problems


def test_outputs_match_golden(tmp_path):
    manifest = json.loads(GOLDEN.read_text())
    outputs = produce(tmp_path)
    assert sorted(outputs) == sorted(manifest["outputs"])
    rate_metrics = json.loads(outputs["simulate/rate-saturated/metrics.json"])
    assert rate_metrics["servo_saturation_fraction"] > 0.0

    exact = manifest["platform"] == platform_key()
    problems = []
    for name, data in outputs.items():
        entry = manifest["outputs"][name]
        moved = deviations(entry["summary"], summarize(name, data), 0.0 if exact else RTOL)
        if exact and hashlib.sha256(data).hexdigest() != entry["sha256"]:
            moved.insert(0, f"sha256 differs from the recorded {entry['sha256'][:12]}... "
                            f"on {manifest['platform']}")
        problems += [f"{name}: {line}" for line in moved]
    assert not problems, "\n".join(problems)


def regenerate() -> None:
    """Rewrite tests/golden.json from this tree's outputs on this platform."""
    with tempfile.TemporaryDirectory() as work:
        outputs = produce(Path(work))
    manifest = {
        "platform": platform_key(),
        "outputs": {name: {"sha256": hashlib.sha256(data).hexdigest(),
                           "summary": summarize(name, data)}
                    for name, data in outputs.items()},
    }
    GOLDEN.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(outputs)} outputs, {platform_key()})", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
