"""A fresh command imports only what it runs: none of the program's modules
brings in a standard-library module that it has no use for."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses pulls in inspect, ast, dis and tokenize; statistics pulls in
# fractions and decimal; logging and traceback have no use on a normal run
UNUSED = ("dataclasses", "inspect", "logging", "statistics", "traceback")

# -I -S: a bare interpreter, so that no site hook imports anything first;
# -B: -I ignores PYTHONDONTWRITEBYTECODE, and the probe should leave no
# __pycache__ behind in src
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
    "import annodiff.cli, annodiff.synth; print(' '.join(sorted(set(sys.modules) - before)))"
)


def test_a_fresh_import_loads_no_unused_module():
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "annodiff.cli" in added and "annodiff.synth" in added
    assert sorted(added & set(UNUSED)) == []
