"""The examples run: each ``examples/*.py`` is imported and its ``main()``
executed, so an API change that breaks one fails tier-1 instead of the
first reader who tries it.  Every example asserts its own results against
a scan or a second mechanism, so a clean return is the check.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples")
                  .glob("*.py"))


def test_every_example_is_collected():
    assert {path.stem for path in EXAMPLES} == {
        "dynamic_maintenance", "planner_conjunctive", "quickstart",
        "sensor_monitoring", "stock_analysis"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
