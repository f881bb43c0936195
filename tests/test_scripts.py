"""Smoke tests for the experiment scripts under ``scripts/``: tiny budgets, exit 0."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(capsys, name, *argv):
    code = load_script(name).main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def test_battery_report(capsys, tmp_path):
    out = tmp_path / "witnesses.json"
    code, lines = run_script(capsys, "battery_report", "--kinds", "lor,di", "--trials", "20",
                             "--seed", "1", "--witnesses", str(out))
    assert code == 0
    assert lines[0].split() == ["kind", "monotone", "swap_antisymmetry", "conditional_invariance"]
    assert [line.split()[0] for line in lines[2:4]] == ["lor", "di"]
    assert set(json.loads(out.read_text())) == {"lor", "di"}


def test_find_witnesses(capsys, tmp_path):
    out = tmp_path / "witnesses.json"
    code, lines = run_script(capsys, "find_witnesses", "--kinds", "lor,di", "--trials", "200",
                             "--seed", "1", "--out", str(out))
    assert code == 0
    assert lines[0].startswith("lor: witness found")
    assert "di: no witness in 200 trials" in lines
    assert set(json.loads(out.read_text())) == {"lor"}


@pytest.mark.parametrize("mc", ["0", "50"])
def test_power_curve(capsys, mc):
    code, lines = run_script(capsys, "power_curve", "--N", "100,200", "--mc", mc)
    assert code == 0
    assert lines[0] == "N,p,exact,normal,empirical"
    assert [line.split(",")[0] for line in lines[1:]] == ["100", "200"]
    assert all((line.split(",")[4] != "") == (mc != "0") for line in lines[1:])
