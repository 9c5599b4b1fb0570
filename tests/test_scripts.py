import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_walkthrough_runs(capsys):
    runpy.run_path(str(SCRIPTS / "demo_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "every step replays" in out and "found=True" in out
