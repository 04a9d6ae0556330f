"""Benchmark: planted corpora through ingest, score, simulate and report.

    python3 perfbench/run.py --workload panel|deep|crowd --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
Inputs are generated from the seed, then separate processes (stages.py)
run the program's commands as a user would and time them, one process per
round. With --trace 0 the last line of standard output reports the
end-to-end metrics (medians of repeated calls); with --trace 1 it reports
the per-layer metrics of one traced round and the tracing overhead. The outputs are checked either way
(checks.py), and their sha256 digests are compared with
reference_digests.json. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_digests.json"
DIGESTED = ("scores.csv", "outcomes.csv", "curves.csv", "stats.json")
TIME_LIMIT = 170.0
MIN_ROUNDS = 5
MAX_MEASURE_S = 120.0  # no new round after this, so a run ends within TIME_LIMIT

# The program runs with its default seed. numpy's OpenBLAS pool gets one
# thread: at import its worker spins on the second CPU, so on a 2-CPU
# machine a fresh interpreter's wall time would depend on whether that CPU
# is free (see README.md). The program does no BLAS work at these sizes.
PROGRAM_ENV = {k: v for k, v in os.environ.items() if k != "ANNODIFF_SEED"} | {"OPENBLAS_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from checks import check_ingest, check_outputs  # noqa: E402
from workloads import WORKLOADS, generate, write_jsonl  # noqa: E402


def run_stages(work: Path, workload: str, mode: str, deadline: float) -> dict:
    """Run stages.py in its own process group, so that a timeout also ends
    the fresh interpreters it starts."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stages.py"), workload, mode],
        cwd=work,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=PROGRAM_ENV,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("stages.py ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"stages.py exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(work: Path, args: argparse.Namespace, deadline: float) -> dict:
    """Whole rounds until the run length is spent, and at least MIN_ROUNDS
    unless MAX_MEASURE_S has passed.

    Each round runs in a fresh stages.py process, as a user's commands do,
    so a run's medians pool several processes instead of resting on one."""
    start = time.monotonic()
    merged: dict = {"attempted": 0, "failures": [], "times": {}, "digests": {}, "peak_rss_mb": 0.0, "rounds": 0}
    while (merged["rounds"] < MIN_ROUNDS or time.monotonic() - start < args.seconds) and (
        time.monotonic() - start < MAX_MEASURE_S
    ):
        result = run_stages(work, args.workload, "round", deadline)
        merged["attempted"] += result["attempted"]
        merged["failures"] += result["failures"]
        for stage, values in result["times"].items():
            merged["times"].setdefault(stage, []).extend(values)
        for name, values in result["digests"].items():
            merged["digests"][name] = sorted(set(merged["digests"].get(name, [])) | set(values))
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], result["peak_rss_mb"])
        merged["ingest_stdout"], merged["check_dir"] = result["ingest_stdout"], result["check_dir"]
        merged["rounds"] += 1
    return merged


def check_digests(result: dict, workload: str, seed: int) -> list[str]:
    """Repeated calls must agree; a change against the reference is only
    reported."""
    problems = []
    reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {}) if REFERENCE.exists() else {}
    for name, values in result["digests"].items():
        if len(values) != 1:
            problems.append(f"{name}: {len(values)} different contents over repeated calls")
            continue
        if name in DIGESTED:
            known = reference.get(name)
            verdict = "no reference" if known is None else "matches reference" if known == values[0] else "DIFFERS from reference"
            print(f"sha256 {name} {values[0]} ({verdict})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="least time spent in measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "annodiff" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'annodiff'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        (work / "data").mkdir(parents=True)
        corpus = generate(args.workload, args.seed)
        write_jsonl(corpus.annotations, work / "data" / "annotations.jsonl")
        write_jsonl(corpus.tweets, work / "data" / "tweets.jsonl")
        result = run_stages(work, args.workload, "trace", deadline) if args.trace else measure(work, args, deadline)

        problems = [f"command failed: {f}" for f in result["failures"]]
        try:
            problems += check_ingest(result["ingest_stdout"], corpus)
            problems += check_outputs(work / result["check_dir"], corpus)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
        problems += check_digests(result, args.workload, args.seed)
        for problem in problems[:20]:
            print(f"check failed: {problem}")
        print(f"{args.workload} seed {args.seed}: {result['attempted']} commands, "
              f"{len(result['failures'])} failed, {len(problems)} check problems")

        if args.trace:
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
        else:
            times = result["times"]
            print(f"{result['rounds']} rounds")
            for stage, values in times.items():
                print(f"{stage} calls (s): " + " ".join(f"{v:.3f}" for v in values))
            metrics = {
                "setup_s": {"value": statistics.median(times["setup"]), "unit": "s"},
                "score_s": {"value": statistics.median(times["score"]), "unit": "s"},
                "simulate_s": {"value": statistics.median(times["simulate"]), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            }
        print(json.dumps({
            "correct": not problems,
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": metrics,
        }))
        return 0
    except (RuntimeError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
