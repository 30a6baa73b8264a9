"""The demos print what they printed when their golden files were written."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 7
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [
        f"demo_{p.name[:2]}.txt" for p in DEMOS
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_byte_stable(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_text()
