"""Fixture tests for the reprolint rules (:mod:`repro.analysis`).

Each rule family gets at least one known-bad snippet that must fire and
one suppressed/marked variant that must stay silent — the contract the
ISSUE acceptance criteria pin.  Snippets are written to ``tmp_path`` and
linted through the public :func:`repro.analysis.run_lint` entry point so
suppression filtering is exercised too.
"""

import textwrap

import pytest

from repro.analysis import run_lint


def lint_snippet(tmp_path, source, rules=None, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf8")
    return run_lint([path], rules).findings


# --------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------- #
class TestLockDiscipline:
    # Pre-dedented so .replace()-based variants splice at real indentation.
    BAD_CLASS = textwrap.dedent("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0

            def record(self):
                with self._lock:
                    self._hits += 1

            def peek(self):
                return self._hits
    """)

    def test_unlocked_read_of_guarded_attribute_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, self.BAD_CLASS, ["lock-discipline"])
        assert len(findings) == 1
        assert "_hits" in findings[0].message
        assert "read" in findings[0].message

    def test_unlocked_write_fires(self, tmp_path):
        source = self.BAD_CLASS.replace(
            "return self._hits", "self._hits = 0"
        )
        findings = lint_snippet(tmp_path, source, ["lock-discipline"])
        assert len(findings) == 1
        assert "written" in findings[0].message

    def test_trailing_suppression_silences(self, tmp_path):
        source = self.BAD_CLASS.replace(
            "return self._hits",
            "return self._hits  # reprolint: disable=lock-discipline",
        )
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        source = self.BAD_CLASS.replace(
            "return self._hits",
            "# reprolint: disable=lock-discipline (benign snapshot)\n"
            "        return self._hits",
        )
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_def_header_suppression_covers_whole_body(self, tmp_path):
        source = self.BAD_CLASS.replace(
            "def peek(self):",
            "def peek(self):  # reprolint: disable=lock-discipline",
        )
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_locked_access_is_clean(self, tmp_path):
        source = self.BAD_CLASS.replace(
            "return self._hits",
            "with self._lock:\n            return self._hits",
        )
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_init_writes_are_construction_time(self, tmp_path):
        # __init__ assigns the guarded attribute without the lock: exempt.
        assert "def __init__" in self.BAD_CLASS
        source = self.BAD_CLASS.replace("return self._hits", "pass")
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_locked_suffix_methods_assumed_under_lock(self, tmp_path):
        source = self.BAD_CLASS.replace(
            "def peek(self):\n        return self._hits",
            "def _drain_locked(self):\n        self._hits = 0",
        )
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_locals_captured_under_lock_are_fine(self, tmp_path):
        source = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def lookup(self, key):
                    with self._lock:
                        entry = self._entries.get(key)
                    return entry
        """
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_mutating_method_call_counts_as_write(self, tmp_path):
        source = """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def add(self, key, value):
                    with self._lock:
                        self._entries.setdefault(key, value)

                def drop(self, key):
                    self._entries.pop(key, None)
        """
        findings = lint_snippet(tmp_path, source, ["lock-discipline"])
        assert len(findings) == 1
        assert "_entries" in findings[0].message

    def test_module_global_registry_pattern_fires(self, tmp_path):
        source = """
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}

            def register(name, value):
                with _LOCK:
                    _REGISTRY[name] = value

            def names():
                return sorted(_REGISTRY)
        """
        findings = lint_snippet(tmp_path, source, ["lock-discipline"])
        assert len(findings) == 1
        assert "_REGISTRY" in findings[0].message

    def test_module_global_under_lock_is_clean(self, tmp_path):
        source = """
            import threading

            _LOCK = threading.Lock()
            _SINGLETON = None

            def get():
                global _SINGLETON
                with _LOCK:
                    if _SINGLETON is None:
                        _SINGLETON = object()
                    return _SINGLETON
        """
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []

    def test_unguarded_attributes_are_ignored(self, tmp_path):
        source = """
            import threading

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._config = 3

                def bump(self):
                    with self._lock:
                        pass

                def config(self):
                    return self._config
        """
        assert lint_snippet(tmp_path, source, ["lock-discipline"]) == []


# --------------------------------------------------------------------- #
# hot-path-allocation
# --------------------------------------------------------------------- #
class TestHotPathAllocation:
    def test_hot_module_concatenate_fires(self, tmp_path):
        source = """
            # reprolint: hot-module
            import numpy as np

            def kernel(a, b):
                return np.concatenate([a, b])
        """
        findings = lint_snippet(tmp_path, source, ["hot-path-allocation"])
        assert len(findings) == 1
        assert "np.concatenate" in findings[0].message

    @pytest.mark.parametrize(
        "call", ["np.vstack([a])", "np.append(a, b)", "np.zeros(3)",
                 "np.empty(3)", "np.ones(3)", "np.empty_like(a)"]
    )
    def test_forbidden_constructors_fire(self, tmp_path, call):
        source = f"""
            # reprolint: hot-module
            import numpy as np

            def kernel(a, b):
                return {call}
        """
        assert len(lint_snippet(tmp_path, source, ["hot-path-allocation"])) == 1

    def test_copy_method_fires(self, tmp_path):
        source = """
            # reprolint: hot-module

            def kernel(a):
                return a.copy()
        """
        findings = lint_snippet(tmp_path, source, ["hot-path-allocation"])
        assert len(findings) == 1
        assert ".copy()" in findings[0].message

    def test_unmarked_module_is_not_hot(self, tmp_path):
        source = """
            import numpy as np

            def kernel(a, b):
                return np.concatenate([a, b])
        """
        assert lint_snippet(tmp_path, source, ["hot-path-allocation"]) == []

    def test_hot_path_marker_scopes_one_function(self, tmp_path):
        source = """
            import numpy as np

            def fused(a, b):  # reprolint: hot-path
                return np.vstack([a, b])

            def cold(a, b):
                return np.vstack([a, b])
        """
        findings = lint_snippet(tmp_path, source, ["hot-path-allocation"])
        assert len(findings) == 1
        assert "fused" in findings[0].message

    def test_workspace_constructor_marker_exempts(self, tmp_path):
        source = """
            # reprolint: hot-module
            import numpy as np

            def scratch(shape):  # reprolint: workspace-constructor
                return np.empty(shape)
        """
        assert lint_snippet(tmp_path, source, ["hot-path-allocation"]) == []

    def test_inline_suppression_silences(self, tmp_path):
        source = """
            # reprolint: hot-module
            import numpy as np

            def kernel(a):
                # reprolint: disable=hot-path-allocation (fresh result record)
                out = np.empty(a.shape)
                return out
        """
        assert lint_snippet(tmp_path, source, ["hot-path-allocation"]) == []

    def test_non_allocating_numpy_is_fine(self, tmp_path):
        source = """
            # reprolint: hot-module
            import numpy as np

            def kernel(a, out):
                np.multiply(a, 2.0, out=out)
                return np.matmul(a, a, out=out)
        """
        assert lint_snippet(tmp_path, source, ["hot-path-allocation"]) == []


# --------------------------------------------------------------------- #
# cache-key-purity
# --------------------------------------------------------------------- #
class TestCacheKeyPurity:
    def test_time_reference_in_reachable_helper_fires(self, tmp_path):
        source = """
            import hashlib
            import time

            def decomposition_cache_key(matrix):
                return _digest(matrix)

            def _digest(matrix):
                return hashlib.sha256(
                    matrix.tobytes() + str(time.time()).encode()
                ).hexdigest()
        """
        findings = lint_snippet(tmp_path, source, ["cache-key-purity"])
        assert findings
        assert any("time.time" in f.message for f in findings)
        assert any("_digest" in f.message for f in findings)

    def test_seed_reference_in_key_builder_fires(self, tmp_path):
        source = """
            class PlanEntry:
                def cache_key(self, defaults):
                    return (self.matrix_digest, self.seed)
        """
        findings = lint_snippet(tmp_path, source, ["cache-key-purity"])
        assert len(findings) == 1
        assert ".seed" in findings[0].message

    @pytest.mark.parametrize(
        "expression, token",
        [
            ("np.random.default_rng().random()", "random"),
            ("os.environ.get('HOME')", "os.environ"),
            ("entry.labels", ".labels"),
        ],
    )
    def test_forbidden_references_fire(self, tmp_path, expression, token):
        source = f"""
            import os

            import numpy as np

            def compiled_plan_cache_key(entry):
                return {expression}
        """
        findings = lint_snippet(tmp_path, source, ["cache-key-purity"])
        assert findings
        assert any(token in f.message for f in findings)

    def test_pure_key_builder_is_clean(self, tmp_path):
        source = """
            import hashlib

            def decomposition_cache_key(matrix, method, epsilon):
                hasher = hashlib.sha256()
                hasher.update(matrix.tobytes())
                hasher.update(repr((method, float(epsilon))).encode())
                return hasher.hexdigest()
        """
        assert lint_snippet(tmp_path, source, ["cache-key-purity"]) == []

    def test_unreachable_impurity_is_ignored(self, tmp_path):
        source = """
            import time

            def decomposition_cache_key(matrix):
                return repr(matrix)

            def unrelated_timer():
                return time.perf_counter()
        """
        assert lint_snippet(tmp_path, source, ["cache-key-purity"]) == []

    def test_suppression_silences(self, tmp_path):
        source = """
            class PlanEntry:
                def cache_key(self, defaults):
                    # reprolint: disable=cache-key-purity (seed excluded upstream)
                    return (self.matrix_digest, self.seed)
        """
        assert lint_snippet(tmp_path, source, ["cache-key-purity"]) == []

    def test_builtin_attr_calls_do_not_expand_reachability(self, tmp_path):
        # memo.get(...) must not drag in unrelated classes defining get().
        source = """
            import time

            class Unrelated:
                def get(self, key):
                    return time.time()

            def decomposition_cache_key(matrix, memo={}):
                return memo.get(matrix)
        """
        assert lint_snippet(tmp_path, source, ["cache-key-purity"]) == []
