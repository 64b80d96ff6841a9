"""Every ``>>>`` example in the package's docstrings runs and shows what it prints.

A docstring example that calls a deleted or renamed name fails here, so the
examples cannot drift from the code the public-surface guard trims.
"""

import doctest
import importlib
from pathlib import Path

import pytest

SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src"


def _modules_with_examples():
    names = []
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf8"):
            parts = path.relative_to(SOURCE_ROOT).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


@pytest.mark.parametrize("name", _modules_with_examples())
def test_docstring_examples_pass(name):
    module = importlib.import_module(name)
    runner = doctest.DocTestRunner()
    report = []
    for test in doctest.DocTestFinder().find(module, name):
        runner.run(test, out=report.append)
    assert runner.tries > 0, f"{name} mentions >>> but holds no docstring example"
    assert runner.failures == 0, "".join(report)
