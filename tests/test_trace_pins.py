"""scripts/check_trace_pins.py, the gate on a traced panel run's counts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_trace_pins.py"
_spec = importlib.util.spec_from_file_location("check_trace_pins", SCRIPT)
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)


def _pinned_values():
    """Every exact pin at its value and every positive metric above 0."""
    return {**pins.EXACT, **dict.fromkeys(pins.POSITIVE, 0.25)}


def _trace_log(tmp_path, values):
    """A run's output whose last line holds the metrics, in perfbench/run.py's form."""
    metrics = {name: {"value": value, "unit": "count"} for name, value in values.items()}
    path = tmp_path / "trace.log"
    path.write_text("an earlier line of the run's output\n" + json.dumps({"metrics": metrics}) + "\n")
    return str(path), metrics


def test_pinned_values_pass(tmp_path, capsys):
    path, metrics = _trace_log(tmp_path, _pinned_values())
    assert pins.mismatches(metrics) == []
    assert pins.main(path) == 0
    assert capsys.readouterr().err == ""


def test_every_problem_is_reported(tmp_path, capsys):
    values = _pinned_values()
    first, second = list(pins.EXACT)[:2]
    values[first] += 1
    values[second] = 0
    zero, missing = pins.POSITIVE[:2]
    values[zero] = 0.0
    del values[missing]
    path, metrics = _trace_log(tmp_path, values)
    problems = pins.mismatches(metrics)
    assert len(problems) == 4
    for name in (first, second, zero, missing):
        assert sum(problem.startswith(f"{name} is ") for problem in problems) == 1, name
    assert pins.main(path) == 1
    assert capsys.readouterr().err.splitlines() == [f"{path}: {problem}" for problem in problems]


def test_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps the program's functions by the names its
    # modules bind, so dropping one (dataset.stable_seed among them) makes
    # install() raise; a fresh process keeps the wrappers out of this one
    root = SCRIPT.parents[1]
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tracer import Tracer; Tracer().install()"
    result = subprocess.run([sys.executable, "-B", "-c", code, str(root / "src"), str(root / "perfbench")],
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
