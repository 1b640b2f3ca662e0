"""Rewrite the golden CLI corpus from the package on the import path.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs every case of ``cases.json``, plain and with ``--bits``, as
``tests/test_golden.py`` does, replaces ``expected/`` with the results
and records the Python and numpy versions in ``versions.json``.
"""

import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CASES, RUNS, run_case, run_id  # noqa: E402


def main() -> None:
    expected = HERE / "expected"
    shutil.rmtree(expected, ignore_errors=True)
    for case, bits in RUNS:
        with tempfile.TemporaryDirectory() as work:
            files = run_case(case, bits, Path(work))
        target = expected / run_id(case, bits)
        target.mkdir(parents=True)
        for name, data in files.items():
            (target / name).write_bytes(data)
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    (HERE / "versions.json").write_text(json.dumps(versions, indent=2) + "\n")
    print(f"{len(RUNS)} runs of {len(CASES)} cases written to {expected}")


if __name__ == "__main__":
    main()
