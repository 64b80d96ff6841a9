"""One benchmark set-up: a fresh process, from start to its first result.

Usage: ``python perfbench/first.py WORKLOAD SEED CACHE_DIR``.  The parent
times the whole process; see ``workloads.first_result`` for what it runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.first_result(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
