"""Tests of the public package surface: exports, version, module entry point."""

import subprocess
import sys

import pytest

import repro


class TestPublicExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_advertised_name_is_importable(self, name):
        assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"

    @pytest.mark.parametrize(
        "name",
        [
            "generate_correlated_envelopes",
            "generate_from_scenario",
            "default_engine",
            "default_simulator",
        ],
    )
    def test_removed_one_call_helpers_are_gone(self, name):
        import repro.api
        import repro.core
        import repro.engine

        assert name not in repro.__all__
        for module in (repro, repro.api, repro.core, repro.engine):
            assert not hasattr(module, name), f"{module.__name__}.{name} is still defined"

    @pytest.mark.parametrize("name", ["doppler_block_size", "partition_counts"])
    def test_plan_helpers_export_from_engine(self, name):
        import repro.engine

        assert name in repro.engine.__all__
        assert getattr(repro.engine, name).__module__ == "repro.engine.plan"

    def test_key_classes_exported(self):
        for name in (
            "CovarianceSpec",
            "RayleighFadingGenerator",
            "RealTimeRayleighGenerator",
            "RicianFadingGenerator",
            "IDFTRayleighGenerator",
            "SumOfSinusoidsGenerator",
            "OFDMScenario",
            "MIMOArrayScenario",
        ):
            assert name in repro.__all__

    def test_exceptions_exported(self):
        assert issubclass(repro.CholeskyError, repro.ReproError)
        assert issubclass(repro.SpecificationError, repro.ReproError)

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.channels
        import repro.core
        import repro.experiments
        import repro.linalg
        import repro.random
        import repro.shard
        import repro.signal
        import repro.validation

        assert repro.core.__doc__ and repro.channels.__doc__

    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil

        missing = []
        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(module_info.name)
            if not module.__doc__:
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"


class TestModuleEntryPoint:
    def test_python_dash_m_repro_list(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "eq22-spectral-covariance" in completed.stdout
        assert "fig4b-spatial-envelopes" in completed.stdout
