from pathlib import Path

import reach

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_ci_runs_the_eleven_reach_checks():
    # reach imports tier-1's oracles, so renaming one fails this import
    assert len([name for name in vars(reach) if name.startswith("test")]) == 11
    assert "PYTHONPATH=src python -m pytest -q --durations=0 tests/reach.py" in WORKFLOW.read_text()
