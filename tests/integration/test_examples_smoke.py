"""Smoke tests: the shipped examples run end to end.

Only the faster examples are executed in-process (the heavier Monte-Carlo
examples are exercised indirectly through the APIs they call); the goal is to
catch import errors and interface drift, not to re-validate statistics.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def _run_example(name: str, capsys) -> str:
    """Execute an example as __main__ and return its stdout."""
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamplesRun:
    def test_examples_directory_is_complete(self):
        present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        expected = {
            "quickstart.py",
            "ofdm_spectral_correlation.py",
            "mimo_spatial_correlation.py",
            "unequal_power_and_nonpsd.py",
            "envelope_correlation_input.py",
            "diversity_receiver_simulation.py",
            "streaming_and_parallel.py",
        }
        assert expected.issubset(present)

    def test_quickstart(self, capsys):
        out = _run_example("quickstart.py", capsys)
        assert "generated 3 branches" in out
        assert "covariance match" in out

    def test_ofdm_spectral_correlation(self, capsys):
        out = _run_example("ofdm_spectral_correlation.py", capsys)
        assert "Eq. 22" in out or "Eq. (22)" in out or "covariance matrix" in out
        assert "overall: PASS" in out

    def test_streaming_and_parallel(self, capsys):
        out = _run_example("streaming_and_parallel.py", capsys)
        assert "accumulated 65536 samples per branch over 16 chunks" in out
        assert "replicas                   : 8" in out
        assert "samples per replica        : 50000" in out

    def test_unequal_power_and_nonpsd(self, capsys):
        out = _run_example("unequal_power_and_nonpsd.py", capsys)
        assert "rejects the request" in out
        assert "Cholesky-based baseline fails" in out


def test_examples_have_module_docstrings():
    for path in EXAMPLES_DIR.glob("*.py"):
        source = path.read_text(encoding="utf8")
        assert source.lstrip().startswith('"""'), f"{path.name} is missing a docstring"
