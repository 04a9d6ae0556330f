"""Run one round of the program's commands in this process and time them.

    python3 perfbench/stages.py WORKLOAD round|trace

run.py starts this in the directory that holds the generated `data/`, so
that input generation stays outside every metric, and starts it afresh for
every round. The program is imported from src/ next to this directory. The
last line of standard output is one JSON object with the call times,
output digests and (with `trace`) the per-layer counters. The fresh
interpreters inherit run.py's environment for the program.

Every command writes into a fresh `out/` at the same relative path, so
repeated calls must produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = ["--dataset", "data/annotations.jsonl", "--tweets", "data/tweets.jsonl"]
OUT = Path("out")
CHECK = "check"
OUTPUTS = ("scores.csv", "summary.json", "outcomes.csv", "curves.csv", "stats.json")

# (fresh-interpreter ingests, score calls) per round, so that every timed
# metric covers at least about a second of work per run; score gets more
# calls than simulate because its calls vary more
ROUND_SHAPE = {"panel": (2, 4), "deep": (2, 2), "crowd": (2, 2)}

# a user's fixed cost: a fresh interpreter imports annodiff and ingests
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from annodiff.cli import main; "
    "sys.exit(main(['ingest', '--dataset', 'data/annotations.jsonl', '--tweets', 'data/tweets.jsonl']))"
)


def peak_rss_mb() -> float:
    """This process's own peak resident memory since exec (VmHWM).

    ru_maxrss is not used: on Linux it starts at the parent's resident
    memory at fork, which here is run.py with numpy and scipy loaded."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Session:
    def __init__(self):
        sys.path.insert(0, SRC)
        from annodiff import cli

        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {"setup": [], "setup_cpu": [], "score": [], "simulate": []}
        self.digests: dict[str, set[str]] = {name: set() for name in OUTPUTS}
        self.ingest_stdout = ""

    def _done(self, name: str, code: int, output: str) -> bool:
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{name} exited {code}: {output[-2000:]}")
        return code == 0

    def setup(self) -> None:
        cpu, start = children_cpu_s(), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC], capture_output=True, text=True, timeout=120
        )
        elapsed = time.perf_counter() - start
        if self._done("ingest", proc.returncode, proc.stdout + proc.stderr):
            self.times["setup"].append(elapsed)
            self.times["setup_cpu"].append(children_cpu_s() - cpu)
            self.ingest_stdout = proc.stdout

    def call(self, name: str, argv: list[str]) -> float:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        self._done(name, code, buf.getvalue())
        if name == "ingest":
            self.ingest_stdout = buf.getvalue()
        return elapsed

    def score(self) -> float:
        shutil.rmtree(OUT, ignore_errors=True)
        return self.call("score", ["score", *DATA, "--out", str(OUT)])

    def simulate(self) -> float:
        return self.call("simulate", ["simulate", *DATA, "--out", str(OUT)])

    def report(self) -> float:
        return self.call("report", ["report", "--out", str(OUT)])

    def record_outputs(self, keep: bool = False) -> None:
        """Digest what out/ holds; keep a first full copy for the checks."""
        for name in OUTPUTS:
            path = OUT / name
            if path.exists():
                self.digests[name].add(hashlib.sha256(path.read_bytes()).hexdigest())
        if keep and not Path(CHECK).exists():
            shutil.copytree(OUT, CHECK)

    def result(self, **extra) -> dict:
        return {
            "attempted": self.attempted,
            "failures": self.failures,
            "times": self.times,
            "digests": {name: sorted(values) for name, values in self.digests.items()},
            "ingest_stdout": self.ingest_stdout,
            "check_dir": CHECK,
            **extra,
        }


def one_round(session: Session, workload: str) -> dict:
    """The workload's ROUND_SHAPE of fresh-interpreter ingests and score
    calls, then one simulate and one report over the last scores. Session()
    has imported annodiff before, so the bytecode is compiled."""
    setups, scores = ROUND_SHAPE[workload]
    for _ in range(setups):
        session.setup()
    for _ in range(scores):
        session.times["score"].append(session.score())
        session.record_outputs()
    session.times["simulate"].append(session.simulate())
    session.report()
    session.record_outputs(keep=True)
    return session.result(peak_rss_mb=peak_rss_mb())


def trace(session: Session) -> dict:
    """One untraced round, then one traced round of all four commands."""
    from tracer import Tracer

    untraced = session.score() + session.simulate()
    session.record_outputs()
    tracer = Tracer()
    tracer.install()
    session.call("ingest", ["ingest", *DATA])
    traced = session.score() + session.simulate()
    session.report()
    session.record_outputs(keep=True)
    return session.result(layers=tracer.metrics(overhead=traced / untraced))


def main() -> int:
    workload, mode = sys.argv[1], sys.argv[2]
    session = Session()
    result = trace(session) if mode == "trace" else one_round(session, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
