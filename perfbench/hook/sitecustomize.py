"""Install the benchmark's layer probes in a child process at start-up.

Traced runs put this directory on the ``PYTHONPATH`` of the server and the
shard workers and name a spans directory in ``PERFBENCH_SPANS``; the
interpreter imports this module before the entry point runs, so the
probes are in place for ``python -m repro serve`` and
``python -m repro.shard.worker`` alike.  The spans are written when the
process exits normally.
"""

import atexit
import os
import sys
from pathlib import Path

_SPANS_DIR = os.environ.get("PERFBENCH_SPANS")
if _SPANS_DIR:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import probes

    atexit.register(probes.install().dump, Path(_SPANS_DIR))
