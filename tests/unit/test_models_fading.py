"""Unit tests for the fading-model table and spec layer.

The coarse behavioural invariants (byte-identity, reference tolerances,
shadowing purity) live in ``tests/property/test_property_fading_models.py``;
this module pins down the edges: table resolution, ``coerce_fading``
error paths (every malformed spec must raise a ``ValueError`` naming the
offending field), cache-key contributions, compile grouping, and the
reprolint markers the hot path depends on.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.models.fading as fading_module
from repro.analysis.framework import ModuleInfo
from repro.engine import SimulationPlan
from repro.engine.plancache import compiled_plan_cache_key
from repro.exceptions import ReproError, SpecificationError
from repro.models import (
    FadingSpec,
    available_fading_models,
    coerce_fading,
    get_fading_model,
    shadowing_gains,
)

BASE = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.5]], dtype=complex)


class TestRegistry:
    def test_all_zoo_models_registered(self):
        names = available_fading_models()
        assert set(names) >= {"rayleigh", "rician", "nakagami", "weibull"}
        assert list(names) == sorted(names)

    def test_unknown_model_error_names_the_field(self):
        with pytest.raises(ValueError, match="fading.model"):
            get_fading_model("rice")
        with pytest.raises(ValueError, match="fading.model"):
            get_fading_model(None)

    def test_every_model_in_the_table_changes_the_samples(self):
        """A model the kernel does not implement would pass as Rayleigh."""
        from repro.api import Simulator

        def samples(fading):
            block = Simulator().envelopes(BASE, 256, seed=9, fading=fading, return_gaussian=True)
            return block.samples

        rayleigh = samples(None)
        for name in available_fading_models():
            if name == "rayleigh":
                continue
            shape = get_fading_model(name).shape_min + 1.5
            assert not np.allclose(samples({"model": name, "shape": shape}), rayleigh), name

    def test_descriptors_declare_their_invariant(self):
        assert get_fading_model("rayleigh").exact
        assert get_fading_model("rician").exact
        for name in ("nakagami", "weibull"):
            descriptor = get_fading_model(name)
            assert not descriptor.exact
            assert 0.0 < descriptor.rtol <= 1e-12


class TestCoerceFading:
    """Every entry point normalizes through ``coerce_fading``."""

    def test_none_and_trivial_collapse(self):
        assert coerce_fading(None) is None
        assert coerce_fading("rayleigh") is None
        assert coerce_fading({"model": "rayleigh"}) is None
        assert coerce_fading(FadingSpec()) is None

    def test_nontrivial_specs_pass_through(self):
        spec = FadingSpec(model="rician", shape=3.0)
        assert coerce_fading(spec) is spec
        via_mapping = coerce_fading({"model": "rician", "shape": 3.0})
        assert via_mapping == spec

    def test_shadowed_rayleigh_is_not_trivial(self):
        spec = coerce_fading({"model": "rayleigh", "shadowing_sigma_db": 4.0})
        assert spec is not None
        assert spec.has_shadowing
        assert spec.family == ("rayleigh", True)

    def test_missing_shape_names_the_field(self):
        with pytest.raises(ValueError, match="fading.shape is required"):
            coerce_fading("rician")

    def test_rayleigh_rejects_shape(self):
        with pytest.raises(ValueError, match="fading.shape must be None"):
            coerce_fading({"model": "rayleigh", "shape": 2.0})

    @pytest.mark.parametrize(
        "model, shape",
        [
            ("weibull", "wide"),
            pytest.param("rician", True, id="rician-bool"),
            pytest.param("rician", np.bool_(True), id="rician-numpy-bool"),
            pytest.param("rician", "2.5", id="rician-numeric-string"),
            pytest.param("nakagami", False, id="nakagami-bool"),
        ],
    )
    def test_non_numeric_shape_names_the_field(self, model, shape):
        with pytest.raises(ValueError, match="fading.shape"):
            coerce_fading({"model": model, "shape": shape})

    @pytest.mark.parametrize(
        "model, shape",
        [("rician", -0.5), ("nakagami", 0.25), ("weibull", 0.0), ("weibull", float("inf"))],
    )
    def test_out_of_range_shape_rejected(self, model, shape):
        with pytest.raises(ValueError, match="fading.shape"):
            coerce_fading({"model": model, "shape": shape})

    @pytest.mark.parametrize(
        "sigma",
        [
            -1.0,
            float("nan"),
            "loud",
            pytest.param(True, id="bool"),
            pytest.param(np.bool_(False), id="numpy-bool"),
            pytest.param("3.0", id="numeric-string"),
            pytest.param(10**400, id="overflowing-int"),
        ],
    )
    def test_bad_shadowing_sigma_names_the_field(self, sigma):
        with pytest.raises(ValueError, match="fading.shadowing_sigma_db"):
            coerce_fading({"model": "rician", "shape": 1.0, "shadowing_sigma_db": sigma})

    def test_unknown_mapping_keys_rejected(self):
        with pytest.raises(ValueError, match="k_factor"):
            coerce_fading({"model": "rician", "k_factor": 3.0})

    def test_unsupported_type_rejected(self):
        with pytest.raises(ValueError, match="fading must be"):
            coerce_fading(3.5)

    def test_errors_are_repro_and_value_errors(self):
        """The CLI maps ReproError, the HTTP layer needs ValueError: both."""
        with pytest.raises(SpecificationError) as excinfo:
            coerce_fading("rice")
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, ReproError)


class TestCacheKeyContribution:
    def test_fading_token_is_pure_content(self):
        spec = FadingSpec(model="nakagami", shape=1.5, shadowing_sigma_db=2.0)
        assert spec.fading_token() == repr(("fading", "nakagami", 1.5, 2.0))
        assert spec.fading_token() == FadingSpec(
            model="nakagami", shape=1.5, shadowing_sigma_db=2.0
        ).fading_token()

    def test_tokens_distinguish_models_and_parameters(self):
        tokens = {
            FadingSpec(model="rician", shape=2.0).fading_token(),
            FadingSpec(model="rician", shape=3.0).fading_token(),
            FadingSpec(model="nakagami", shape=2.0).fading_token(),
            FadingSpec(model="rician", shape=2.0, shadowing_sigma_db=3.0).fading_token(),
        }
        assert len(tokens) == 4

    def test_compiled_plan_cache_key_splits_on_fading(self):
        def key(fading):
            plan = SimulationPlan()
            plan.add(BASE, seed=1, fading=fading)
            return compiled_plan_cache_key(plan)

        keys = {
            key(None),
            key({"model": "rician", "shape": 4.0}),
            key({"model": "rician", "shape": 5.0}),
            key({"model": "weibull", "shape": 4.0}),
            key({"model": "rayleigh", "shadowing_sigma_db": 6.0}),
        }
        assert len(keys) == 5

    def test_trivial_spec_shares_the_fast_path_key(self):
        plain = SimulationPlan()
        plain.add(BASE, seed=1)
        trivial = SimulationPlan()
        trivial.add(BASE, seed=1, fading="rayleigh")
        assert compiled_plan_cache_key(plain) == compiled_plan_cache_key(trivial)


class TestPlanIntegration:
    def test_trivial_fading_collapses_on_the_entry(self):
        plan = SimulationPlan()
        plan.add(BASE, seed=2, fading={"model": "rayleigh", "shadowing_sigma_db": 0.0})
        assert plan[0].fading is None

    def test_group_key_splits_by_family_not_shape(self):
        plan = SimulationPlan()
        plan.add(BASE, seed=1, fading={"model": "rician", "shape": 2.0})
        plan.add(BASE, seed=2, fading={"model": "rician", "shape": 9.0})
        plan.add(BASE, seed=3, fading={"model": "weibull", "shape": 1.5})
        plan.add(
            BASE,
            seed=4,
            fading={"model": "rician", "shape": 2.0, "shadowing_sigma_db": 5.0},
        )
        plan.add(BASE, seed=5)
        keys = [entry.group_key for entry in plan]
        assert keys[0] == keys[1]  # same family: shapes stack per-entry
        assert len({keys[0], keys[2], keys[3], keys[4]}) == 4

    def test_shadowing_gains_reject_non_integer_seeds(self):
        for bad_seed in (True, None, 3.0, np.random.default_rng(0)):
            with pytest.raises(ValueError, match="integer per-entry seed"):
                shadowing_gains(bad_seed, 3.0, 2)


class TestLintMarkers:
    """The transform module must stay under reprolint's hot-path rules."""

    def test_fading_module_is_hot_marked(self):
        path = Path(fading_module.__file__)
        module = ModuleInfo(path, "src/repro/models/fading.py", path.read_text())
        assert module.hot_module
        marked = {
            node.name
            for node in module.tree.body
            if hasattr(node, "name")
            and hasattr(node, "args")
            and module.has_header_marker(node, module.hot_path_lines)
        }
        assert "apply_fading_block" in marked
        workspace = {
            node.name
            for node in module.tree.body
            if hasattr(node, "name")
            and hasattr(node, "args")
            and module.has_header_marker(node, module.workspace_lines)
        }
        assert "build_fading_stacks" in workspace

    def test_fading_token_is_a_key_purity_root(self):
        from repro.analysis.key_purity import ROOT_NAMES

        assert "fading_token" in ROOT_NAMES
