"""Regenerate reference_digests.json from the current program.

    python3 perfbench/digests.py

Runs every workload once per reference seed (traced, the shortest run) and
records the sha256 digests run.py prints for scores.csv, outcomes.csv,
curves.csv and stats.json. Later runs on those seeds report whether their
outputs still match; a speed-up should leave every digest unchanged.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, dict[str, str]]] = {}
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True,
            )
            if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            found = dict(re.findall(r"^sha256 (\S+) ([0-9a-f]{64})", proc.stdout, re.MULTILINE))
            reference.setdefault(workload, {})[str(seed)] = found
            print(workload, seed, "ok")
    (HERE / "reference_digests.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
