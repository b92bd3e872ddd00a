import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_doubling_experiment_runs():
    result = subprocess.run(
        [
            sys.executable,
            "scripts/doubling_experiment.py",
            "--count", "1",
            "--strands", "3",
            "--lengths", "2", "4",
            "--length", "2",
            "--strand-counts", "2", "3",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "log-log fit exponent:" in result.stdout
    assert "spread" in result.stdout


def test_doubling_experiment_predicts_a_floor_under_the_visits():
    result = subprocess.run(
        [
            sys.executable,
            "scripts/doubling_experiment.py",
            "--predicted",
            "--count", "2",
            "--strands", "3",
            "--lengths", "4", "8",
            "--length", "4",
            "--strand-counts", "2", "4",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "predicted floor fit exponent:" in result.stdout
    assert "spread (max/min of mean predicted floor):" in result.stdout
    rows = [line.split() for line in result.stdout.splitlines() if line[:6].strip().isdigit()]
    assert len(rows) == 4
    # each letter visits its input in the twist and again in the reduction
    # of the longer output, so twice the predicted input lengths is a floor
    assert all(0 < float(row[-1]) <= 1 for row in rows), result.stdout


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_fragment_occurs_once():
    # a fragment the source no longer holds would stop the gate only after
    # it has run the unmutated suite
    for name, file, fragment, _ in load_mutants().MUTANTS:
        source = (ROOT / "src" / "braidnf" / file).read_text()
        assert source.count(fragment) == 1, name


def test_mutants_script_reports_the_killing_test():
    mutants = load_mutants()
    (rotation,) = [m for m in mutants.MUTANTS if m[0] == "rotation off by 2"]
    assert mutants.run_mutant(rotation, ("tests/test_twist.py",)).startswith(
        "tests/test_twist.py::"
    )
