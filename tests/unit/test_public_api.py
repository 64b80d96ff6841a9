"""Tests of the public package surface: exports, version, module entry point."""

import asyncio
import http.client
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Simulator
from repro.experiments import list_experiments
from repro.service import PROTOCOL_VERSION, EnvelopeService, ServiceHTTPServer

README = Path(__file__).resolve().parents[2] / "README.md"

#: Every ``repro.``-qualified row the README migration table marks removed,
#: as ``(path, keywords)``: a row naming keywords removes those parameters
#: from ``path``; any other row removes ``path`` itself.
REMOVED_ROWS = sorted(
    {
        (path, tuple(re.findall(r"(\w+)=", arguments)))
        for path, arguments in re.findall(
            r"^\| `(repro(?:\.\w+)+)(\([^`]*\))?[^`]*` \*removed\*",
            README.read_text("utf8"),
            re.M,
        )
    }
)


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

    @pytest.mark.parametrize("name", ["RicianFadingGenerator", "register_fading_model"])
    def test_removed_fading_extensions_are_gone(self, name):
        """Rician runs only as the ``rician`` plan model; the model table is closed."""
        import repro.core
        import repro.models

        assert name not in repro.__all__
        for module in (repro, repro.core, repro.models):
            assert not hasattr(module, name), f"{module.__name__}.{name} is still defined"
        with pytest.raises(ModuleNotFoundError):
            import repro.core.rician  # noqa: F401

    @pytest.mark.parametrize("name", ["partition_counts"])
    def test_plan_helpers_export_from_engine(self, name):
        import repro.engine

        assert name in repro.engine.__all__
        assert getattr(repro.engine, name).__module__ == "repro.engine.plan"

    def test_key_classes_exported(self):
        for name in (
            "CovarianceSpec",
            "RayleighFadingGenerator",
            "RealTimeRayleighGenerator",
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


def _resolve(parts):
    """The object ``parts`` names, or ``None`` once a module or member is gone."""
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name, None)
        return owner
    return None


@pytest.mark.parametrize(
    "path, keywords",
    REMOVED_ROWS,
    ids=[path + "".join(f"({keyword}=)" for keyword in keywords) for path, keywords in REMOVED_ROWS],
)
def test_names_the_readme_marks_removed_are_gone(path, keywords):
    parts = path.split(".")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(path)
    target = _resolve(parts)
    if not keywords or target is None:
        assert target is None, f"{path} is marked removed but still defined"
        return
    parameters = inspect.signature(target).parameters
    kept = [keyword for keyword in keywords if keyword in parameters]
    assert not kept, f"{path} still takes {kept}, which the README marks removed"


#: The README's migration row for the float-list covariances of protocol
#: version 1.
VERSION_1_MATRIX_ROW = (
    '| `POST /v1/plans` entry field `"matrix": {"re": [[...]], "im": [[...]]}` '
    "of protocol version 1 *removed* | "
    '`"matrix": {"n": N, "c16": "<base64>"}` under `"version": 2`, as '
    "`repro.service.plan_to_payload(plan, n)` builds it; a version-1 body "
    "answers `400` |"
)


class TestVersion1RequestBody:
    """The ``re``/``im`` request field is gone: the README says so, and a
    version-1 body answers 400 naming the version the server speaks."""

    def test_the_readme_marks_the_float_list_matrix_removed(self):
        assert VERSION_1_MATRIX_ROW in README.read_text("utf8").splitlines()

    def test_a_version_1_body_answers_400_naming_version_2(self):
        body = json.dumps(
            {
                "version": 1,
                "n_samples": 32,
                "entries": [{"matrix": {"re": [[1.0]], "im": [[0.0]]}, "seed": 1}],
            }
        )

        def post(port):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                connection.request("POST", "/v1/plans", body=body)
                response = connection.getresponse()
                return response.status, json.loads(response.read())
            finally:
                connection.close()

        async def scenario():
            simulator = Simulator()
            service = EnvelopeService(simulator)
            await service.start()
            server = ServiceHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                return await asyncio.to_thread(post, server.port)
            finally:
                await server.stop()
                await service.stop()
                simulator.close()

        status, answer = asyncio.run(scenario())
        assert PROTOCOL_VERSION == 2
        assert status == 400
        assert answer["error"] == "unsupported protocol version 1 (this server speaks 2)"


def test_the_readme_experiment_table_lists_every_experiment_in_order():
    listed = re.findall(r"^\| `([a-z0-9-]+)` \| ", README.read_text("utf8"), re.M)
    assert listed == list_experiments()


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
