"""Every script in ``demos/`` runs to completion against the package."""

import os
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a demo that writes files writes them here
    runpy.run_path(os.fspath(demo), run_name="__main__")
    assert capsys.readouterr().out
