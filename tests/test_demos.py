"""Every script in demos/ runs to completion in a fresh process."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))  # the catalogue demo writes a temporary file
    # the suite's own filterwarnings setting: a RuntimeWarning fails the demo
    proc = run_python("-W", "error::RuntimeWarning", str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list(tmp_path.iterdir()) == []  # and removes it
