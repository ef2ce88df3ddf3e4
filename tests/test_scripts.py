import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("report, code", [([], 0), (["metric: broken"], 1)])
def test_explore_limit_exit_code_follows_the_snapshot_report(monkeypatch, capsys, report, code):
    script = load_script("explore_limit")
    monkeypatch.setattr(script, "validate_k", lambda s: report)
    monkeypatch.setattr(sys, "argv", ["explore_limit.py", "--depth", "2", "--points", "2"])
    assert script.main() == code
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("snapshot valid" if code == 0 else "snapshot INVALID: metric: broken")
