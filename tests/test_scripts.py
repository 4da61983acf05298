"""The experiment scripts' tables, pinned byte for byte.

Each script in scripts/ runs with its default arguments and its stdout
must equal the file of the same name in tests/golden/, so a change that
moves a clock count, a score or a `p_total` shows here.  To accept a
deliberate change, rerun the script and commit its new output:

    PYTHONPATH=src python scripts/run_compare_spc.py \
        > tests/golden/run_compare_spc.txt
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["run_compare_spc", "run_tradeoff_sweep",
                                  "run_alpha_sensitivity"])
def test_script_prints_its_golden_table(name, monkeypatch, capsys):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert script.main() == 0
    expected = (ROOT / "tests" / "golden" / f"{name}.txt").read_text()
    assert capsys.readouterr().out == expected
