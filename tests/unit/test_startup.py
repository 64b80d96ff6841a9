"""Process start-up: what each entry point imports, and scipy staying optional.

A shard worker or a ``repro serve`` process pays for every module it
imports before doing any work, so the package roots re-export lazily
(:mod:`repro._lazy`) and scipy is imported only inside the functions that
call it.  These tests pin that down in fresh interpreters:

* the import budget of ``repro.shard.worker``, ``repro.cli`` and slicing a
  plan;
* every lazily re-exported name still resolves, ``from repro import *``
  works, and ``dir()`` lists the exports;
* with a stub ``scipy`` that raises :class:`ImportError` on the path,
  the numpy-only paths (snapshot and Doppler plans, the shard worker, the
  sharded CLI sweep, ``repro serve --help``) still work and ``nakagami``
  fails with its scipy-gated :class:`~repro.exceptions.SpecificationError`.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])
LAZY_ROOTS = (
    "repro",
    "repro.core",
    "repro.service",
    "repro.validation",
    "repro.experiments",
    "repro.shard",
)


def _python(code_or_args, *, extra_path=(), timeout=120):
    """Run a fresh interpreter with ``extra_path`` ahead of the sources."""
    env = dict(os.environ)
    path = [*extra_path, SRC_ROOT]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    argv = code_or_args if isinstance(code_or_args, list) else ["-c", code_or_args]
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _loaded_after(module: str):
    completed = _python(
        f"import sys, json, {module}; print(json.dumps(sorted(sys.modules)))"
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _under(name: str, prefixes) -> bool:
    return any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)


class TestImportBudget:
    def test_shard_worker_loads_only_what_it_runs(self):
        forbidden = (
            "scipy",
            "asyncio",
            "repro.api",
            "repro.core.generator",
            "repro.core.realtime",
            "repro.core.statistics",
            "repro.service.core",
            "repro.shard.runner",
            "repro.experiments",
            "repro.validation",
        )
        loaded = [name for name in _loaded_after("repro.shard.worker") if _under(name, forbidden)]
        assert loaded == []

    def test_shard_worker_runs_as_main_without_runtime_warning(self):
        """runpy warns when ``repro.shard`` already imported the worker module."""
        completed = _python(["-W", "error::RuntimeWarning", "-m", "repro.shard.worker", "--help"])
        assert completed.returncode == 0, completed.stderr
        assert "RuntimeWarning" not in completed.stderr

    def test_partitioning_a_plan_loads_no_generators_or_process_pool(self):
        """``run_sharded``'s parent slices plans; that must stay cheap."""
        completed = _python(
            "import sys, json\n"
            "import numpy as np\n"
            "from repro.engine import SimulationPlan\n"
            "plan = SimulationPlan.from_specs([np.eye(2, dtype=complex)] * 3, seed=1)\n"
            "plan.partition(2)\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert completed.returncode == 0, completed.stderr
        forbidden = (
            "concurrent.futures.process",
            "repro.core.generator",
            "repro.core.realtime",
            "repro.core.statistics",
            "repro.parallel",
            "repro.signal",
        )
        loaded = json.loads(completed.stdout.splitlines()[-1])
        assert [name for name in loaded if _under(name, forbidden)] == []

    def test_cli_loads_no_scipy(self):
        loaded = [name for name in _loaded_after("repro.cli") if _under(name, ("scipy",))]
        assert loaded == []

    def test_import_repro_loads_neither_numpy_nor_scipy(self):
        loaded = _loaded_after("repro")
        assert [name for name in loaded if _under(name, ("numpy", "scipy"))] == []


class TestLazyExports:
    @pytest.mark.parametrize("root", LAZY_ROOTS)
    def test_every_exported_name_resolves(self, root):
        module = importlib.import_module(root)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []

    @pytest.mark.parametrize("root", LAZY_ROOTS)
    def test_dir_lists_the_exports(self, root):
        module = importlib.import_module(root)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("root", LAZY_ROOTS)
    def test_type_checking_block_matches_all(self, root):
        """The static import block names exactly the lazy exports."""
        module = importlib.import_module(root)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf8"))
        static = set()
        for node in tree.body:
            if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
                for statement in node.body:
                    static.update(alias.name for alias in statement.names)
        assert static == set(module.__all__) - {"__version__"}

    def test_star_import_in_a_fresh_process(self):
        completed = _python(
            "import repro\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "missing = set(repro.__all__) - set(namespace)\n"
            "assert not missing, missing\n"
            "assert namespace['Simulator'] is repro.api.Simulator\n"
        )
        assert completed.returncode == 0, completed.stderr

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")
        assert not hasattr(repro, "_private_probe")

    def test_submodule_attribute_imports_the_submodule(self):
        completed = _python(
            "import repro\n"
            "assert repro.engine.SimulationEngine.__name__ == 'SimulationEngine'\n"
            "import sys; assert 'repro.engine' in sys.modules\n"
        )
        assert completed.returncode == 0, completed.stderr


@pytest.fixture(scope="module")
def no_scipy(tmp_path_factory):
    """A directory whose ``scipy`` package raises ImportError on import."""
    root = tmp_path_factory.mktemp("no-scipy")
    (root / "scipy").mkdir()
    (root / "scipy" / "__init__.py").write_text(
        "raise ImportError('scipy is hidden for this test')\n", encoding="utf8"
    )
    return str(root)


class TestScipyOptional:
    def test_stub_hides_scipy(self, no_scipy):
        completed = _python("import scipy", extra_path=[no_scipy])
        assert completed.returncode != 0
        assert "hidden" in completed.stderr

    def test_numpy_paths_run_without_scipy(self, no_scipy):
        script = textwrap.dedent(
            """
            import numpy as np
            import repro
            from repro import *
            from repro import SimulationEngine, SimulationPlan, SpecificationError

            K = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, 1.0]])
            plan = SimulationPlan()
            plan.add(K, seed=1)
            plan.add(K, seed=2, doppler={"normalized_doppler": 0.05, "n_points": 64})
            result = SimulationEngine().run(plan, 128)
            assert [b.samples.shape for b in result.blocks] == [(2, 128), (2, 128)]
            assert repro.Simulator().envelopes(K, 64, seed=3).envelopes.shape == (2, 64)
            try:
                plan.add(K, seed=3, fading={"model": "nakagami", "shape": 2.0})
            except SpecificationError as exc:
                assert "requires scipy" in str(exc), exc
            else:
                raise AssertionError("nakagami ran without scipy")
            print("ok")
            """
        )
        completed = _python(script, extra_path=[no_scipy])
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip().endswith("ok")

    @pytest.mark.parametrize(
        "argv",
        [["-m", "repro.shard.worker", "--help"], ["-m", "repro", "serve", "--help"]],
        ids=["shard-worker", "serve"],
    )
    def test_entry_point_help_without_scipy(self, no_scipy, argv):
        completed = _python(argv, extra_path=[no_scipy])
        assert completed.returncode == 0, completed.stderr
        assert "usage" in completed.stdout

    def test_sharded_sweep_without_scipy(self, no_scipy, tmp_path):
        completed = _python(
            [
                "-m", "repro", "shard",
                "--shards", "2",
                "--entries", "6",
                "--branches", "3",
                "--samples", "48",
                "--doppler-every", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--check",
            ],
            extra_path=[no_scipy],
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "bit-identical to solo run: OK" in completed.stdout
