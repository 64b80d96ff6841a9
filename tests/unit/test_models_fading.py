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
from repro.engine import DopplerSpec, SimulationPlan
from repro.engine.plancache import compiled_plan_cache_key
from repro.exceptions import ReproError, SpecificationError
from repro.models import (
    FadingSpec,
    coerce_fading,
    get_fading_model,
    reference_fading_samples,
    shadowing_gains,
)

BASE = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.5]], dtype=complex)


class TestRegistry:
    @pytest.mark.parametrize("name", ["rayleigh", "rician", "nakagami", "weibull"])
    def test_all_zoo_models_registered(self, name):
        assert get_fading_model(name).name == name

    def test_unknown_model_error_names_the_field(self):
        with pytest.raises(ValueError, match="fading.model"):
            get_fading_model("rice")
        with pytest.raises(ValueError, match="fading.model"):
            get_fading_model(None)

    def test_every_model_in_the_table_changes_the_samples(self):
        """A model the kernel does not implement would pass as Rayleigh."""
        from repro.api import Simulator

        def samples(fading):
            plan = SimulationPlan()
            plan.add(BASE, seed=9, fading=fading)
            block = Simulator().run(plan, 256).blocks[0]
            return block.samples

        rayleigh = samples(None)
        for name in fading_module._MODELS:
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
        [
            ("rician", -0.5),
            ("nakagami", 0.25),
            ("weibull", 0.0),
            ("weibull", float("inf")),
            pytest.param("weibull", 0.005, id="weibull-gamma-overflow"),
        ],
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


class TestNakagamiSeededInverse:
    """The seeded Newton inverse against the looped ``gammaincinv`` oracle.

    Deterministic wide-range checks the property suite's Gaussian draws
    cannot reach: ``r^2 / Omega`` from 1e-14 to past the seed table's end,
    exact zeros, extreme ``m``, and groups mixing ``m`` values.
    """

    M_VALUES = (0.5, 0.6, 1.0, 1.5, 2.5, 8.0, 100.0, 1e6)
    POWERS = np.array([0.7, 2.0])

    def _plan(self, ms, doppler=None):
        plan = SimulationPlan()
        covariance = np.diag(self.POWERS).astype(complex)
        for index, m in enumerate(ms):
            plan.add(
                covariance,
                seed=40 + index,
                doppler=doppler,
                fading={"model": "nakagami", "shape": m},
            )
        return plan

    def _wide_block(self, n_entries):
        """``(B, 2, n)`` samples with ``r^2 / Omega`` spanning 1e-14..~36.4.

        Each row holds 2048 log-spaced powers from 1e-14 to 36 (the seed
        table's top), one at 36.4 off the table (where ``u`` still rounds
        below 1), and two exact zeros; phases are random.
        """
        s = np.concatenate([np.geomspace(1e-14, 36.0, 2048), [36.4, 0.0, 0.0]])
        rng = np.random.default_rng(3)
        phase = np.exp(2j * np.pi * rng.random((n_entries, 2, s.size)))
        envelope = np.sqrt(s[np.newaxis, np.newaxis, :] * self.POWERS[:, np.newaxis])
        return envelope * phase

    def _apply(self, plan, block):
        stacks = fading_module.build_fading_stacks(list(plan))
        scratch = fading_module.new_fading_scratch(stacks, block.shape)
        out = block.copy()
        fading_module.apply_fading_block(out, stacks, scratch)
        return out

    def _assert_matches_reference(self, plan, block, got):
        rtol = get_fading_model("nakagami").rtol
        for entry, samples, faded in zip(plan, block, got):
            reference = reference_fading_samples(samples, self.POWERS, entry.fading)
            assert np.allclose(faded, reference, rtol=rtol, atol=1e-15), entry.fading
            assert np.array_equal(faded == 0, reference == 0)

    @pytest.mark.parametrize("m", M_VALUES)
    def test_wide_range_matches_reference(self, m):
        plan = self._plan([m])
        block = self._wide_block(1)
        self._assert_matches_reference(plan, block, self._apply(plan, block))

    def test_mixed_m_group_matches_reference(self):
        ms = (2.5, 0.6, 0.6, 1e6)
        plan = self._plan(ms)
        stacks = fading_module.build_fading_stacks(list(plan))
        assert [run[2] for run in stacks.inverse_runs] == [2.5, 0.6, 1e6]
        # m = 1e6 lies past the seeded range: gammaincinv throughout.
        assert [run[3] is None for run in stacks.inverse_runs] == [False, False, True]
        block = self._wide_block(len(ms))
        self._assert_matches_reference(plan, block, self._apply(plan, block))

    @pytest.mark.parametrize(
        "doppler",
        [None, DopplerSpec(normalized_doppler=0.05, n_points=64)],
        ids=["snapshot", "doppler"],
    )
    def test_engine_snapshot_and_doppler_match_reference(self, doppler):
        """Through the engine, with a two-entry group of different m."""
        from repro.api import Simulator

        faded_plan = self._plan([1.5, 8.0], doppler=doppler)
        plain_plan = SimulationPlan()
        for entry in faded_plan:
            plain_plan.add(entry.spec, seed=entry.seed, doppler=doppler)
        with Simulator() as simulator:
            got = simulator.run(faded_plan, 700).blocks
            base = simulator.run(plain_plan, 700).blocks
        rtol = get_fading_model("nakagami").rtol
        for entry, faded, plain in zip(faded_plan, got, base):
            reference = reference_fading_samples(
                plain.samples, self.POWERS, entry.fading
            )
            assert np.allclose(faded.samples, reference, rtol=rtol, atol=1e-15)

    def test_off_table_elements_take_the_fallback(self, monkeypatch):
        """s below 1e-12, past the table, or zero goes to gammaincinv."""
        from scipy import special

        plan = self._plan([1.5])
        block = self._wide_block(1)
        stacks = fading_module.build_fading_stacks(list(plan))
        scratch = fading_module.new_fading_scratch(stacks, block.shape)
        recomputed = []

        class RecordingSpecial:
            gammainc = special.gammainc
            gammaincc = special.gammaincc

            @staticmethod
            def gammaincinv(m, u, out):
                recomputed.extend(np.asarray(u).tolist())
                return special.gammaincinv(m, u, out=out)

        monkeypatch.setattr(fading_module, "_scipy_special", lambda: RecordingSpecial)
        got = block.copy()
        fading_module.apply_fading_block(got, stacks, scratch)
        # The kernel's own r^2 / Omega, rounding included.
        r = np.abs(block)
        s = r * r / self.POWERS[:, np.newaxis]
        off_table = (s < 1e-12) | (s > 36.0)
        recomputed_here = np.isin(-np.expm1(-s), recomputed)
        assert np.all(recomputed_here[off_table])
        # On the table only s > 20 may be recomputed: there u's rounding
        # moves 1 - u far enough from exp(-s) that the Newton correction
        # exceeds its tolerance.  Everything below is seeded.
        assert np.all(s[recomputed_here & ~off_table] > 20.0)
        assert np.count_nonzero(recomputed_here) < s.size // 4
        self._assert_matches_reference(plan, block, got)

    def test_output_does_not_depend_on_the_table_being_cached(self, monkeypatch):
        plan = self._plan([2.5, 0.6])
        block = self._wide_block(2)
        monkeypatch.setattr(fading_module, "_INVERSE_TABLES", {})
        fresh = self._apply(plan, block)
        assert set(fading_module._INVERSE_TABLES) == {2.5, 0.6}
        cached = self._apply(plan, block)
        assert np.array_equal(fresh, cached)
        table = fading_module._INVERSE_TABLES[2.5]
        assert not table.c0.flags.writeable

    def test_table_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(fading_module, "_INVERSE_TABLES", {})
        limit = fading_module._INVERSE_TABLE_LIMIT
        for index in range(limit + 8):
            fading_module._inverse_table(1.0 + index / 7.0)
        assert len(fading_module._INVERSE_TABLES) == limit
        assert 1.0 + (limit + 7) / 7.0 in fading_module._INVERSE_TABLES
        assert 1.0 not in fading_module._INVERSE_TABLES


class TestInverseTableThreads:
    def test_concurrent_lookups_stay_bounded_and_consistent(self, monkeypatch):
        """Serve threads share the table dict: racing lookups and evictions
        must neither raise nor hand out differing tables for one m."""
        import sys
        import threading

        monkeypatch.setattr(fading_module, "_INVERSE_TABLES", {})
        monkeypatch.setattr(fading_module, "_INVERSE_TABLE_LIMIT", 4)
        ms = [1.0 + index / 4.0 for index in range(6)]
        seen = {m: set() for m in ms}
        errors = []

        def worker(offset):
            try:
                for step in range(60):
                    m = ms[(offset + step) % len(ms)]
                    table = fading_module._inverse_table(m)
                    seen[m].add(table.c0.tobytes())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(fading_module._INVERSE_TABLES) <= 4
        assert all(len(contents) == 1 for contents in seen.values())


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
