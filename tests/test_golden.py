"""The shipped suite's outputs, byte for byte, and the quadrature work it does.

``tests/golden/`` holds the ``workbench suite`` table and the ``workbench
verify --out`` CSV of each shipped scenario.  A change that is meant to keep
every number must keep these files; a change that is meant to move a number
regenerates them and says why.  Regenerate from the repository root with

    PYTHONPATH=src python -m workbench.cli suite > tests/golden/suite.txt
    for f in src/workbench/scenarios/*.json; do
        PYTHONPATH=src python -m workbench.cli verify --scenario "$f" \\
            --out "tests/golden/$(basename "$f" .json).csv"
    done
"""

from pathlib import Path

from workbench import harness, nevanlinna
from workbench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(harness.shipped_scenario_dir().glob("*.json"))


def test_shipped_scenarios_are_all_golden():
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == [p.stem + ".csv" for p in SCENARIOS]
    assert len(SCENARIOS) == 12


def test_suite_table_matches_golden(capsys):
    assert main(["suite"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "suite.txt").read_text()


def test_verify_csvs_match_golden(tmp_path, capsys):
    for path in SCENARIOS:
        out = tmp_path / (path.stem + ".csv")
        assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes(), path.stem
    capsys.readouterr()


def test_shipped_suite_quadrature_work(monkeypatch):
    """The circle averages of the shipped suite that are not exact go through
    ``nevanlinna.circle_average``: 256 averages over 2,033,664 nodes.  The
    characteristic of an exp-polynomial tuple, such as the curve
    [1 : e^z : e^{z^2}] of smt_exp_units, is exact and samples nothing."""
    calls, samples = [], []
    real = nevanlinna.circle_average

    def counted(logabs, r):
        def sampled(zs):
            samples.append(zs.size)
            return logabs(zs)

        calls.append(r)
        return real(sampled, r)

    monkeypatch.setattr(nevanlinna, "circle_average", counted)
    for path in SCENARIOS:
        harness.run_scenario(harness.load_scenario(path))
    assert len(calls) == 256
    assert sum(samples) == 2_033_664
