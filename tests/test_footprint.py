"""A fresh command imports only what it runs: none of the program's modules
brings in a standard-library module that it has no use for, and no import
loads a program module that it does not run."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses pulls in inspect, ast, dis and tokenize; statistics pulls in
# fractions and decimal; logging and traceback have no use on a normal run
UNUSED = ("dataclasses", "inspect", "logging", "statistics", "traceback")

# the modules that score and simulate run, which the dataset generator does not
SCORING = ("annodiff.cli", "annodiff.simulation", "annodiff.difficulty", "annodiff.knn", "annodiff.stats", "annodiff.outputs")


def fresh_import(modules: str) -> set[str]:
    """The modules that `import <modules>` adds to a fresh interpreter."""
    # -I -S: a bare interpreter, so that no site hook imports anything first;
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, and the probe should leave no
    # __pycache__ behind in src
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        f"import {modules}; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC)], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_a_fresh_import_loads_no_unused_module():
    added = fresh_import("annodiff.cli, annodiff.synth")
    assert "annodiff.cli" in added and "annodiff.synth" in added
    assert sorted(added & set(UNUSED)) == []


def test_a_fresh_import_loads_no_program_module_it_does_not_run():
    # the package re-exports nothing, so importing it loads no submodule
    added = fresh_import("annodiff")
    assert "annodiff" in added
    assert sorted(name for name in added if name.startswith("annodiff.")) == []
    # scripts/make_synthetic_dataset.py runs annodiff.synth alone
    added = fresh_import("annodiff.synth")
    assert "annodiff.synth" in added
    assert sorted(added & set(SCORING)) == []
