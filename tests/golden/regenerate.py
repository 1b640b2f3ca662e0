"""Rewrite the golden CLI corpus from the package on the import path, or
list what a rewrite would change.

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

Runs every case of ``cases.json``, plain and with ``--bits``, as
``tests/test_golden.py`` does, replaces ``expected/`` with the results
and records the Python and numpy versions in ``versions.json``.

``--check`` writes nothing. It prints one line for each run or file
that a rewrite would change (``changed``), add (``new``) or remove
(``missing``), and exits 1 when it prints any. It compares runs only:
``versions.json`` names the versions the corpus was written with, and a
version that moves no byte is no change.
"""

import argparse
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


def fresh_runs() -> dict:
    """{run id: {file name: bytes}} of every run, made in temporary
    directories."""
    runs = {}
    for case, bits in RUNS:
        with tempfile.TemporaryDirectory() as work:
            runs[run_id(case, bits)] = run_case(case, bits, Path(work))
    return runs


def check(expected: Path, runs: dict) -> list:
    """One line per run or file of ``runs`` that differs from the corpus
    in ``expected``: changed, new or missing, in run order."""
    lines = []
    for run, files in runs.items():
        stored = expected / run
        if not stored.is_dir():
            lines.append(f"new {run}")
            continue
        want = {p.name: p.read_bytes() for p in sorted(stored.iterdir())}
        for name in sorted(set(files) | set(want)):
            if name not in want:
                lines.append(f"new {run}/{name}")
            elif name not in files:
                lines.append(f"missing {run}/{name}")
            elif files[name] != want[name]:
                lines.append(f"changed {run}/{name}")
    if expected.is_dir():
        lines += [f"missing {p.name}" for p in sorted(expected.iterdir()) if p.name not in runs]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="list what a rewrite would change")
    args = parser.parse_args(argv)
    expected = HERE / "expected"
    runs = fresh_runs()
    if args.check:
        lines = check(expected, runs)
        for line in lines:
            print(line)
        return 1 if lines else 0
    shutil.rmtree(expected, ignore_errors=True)
    for run, files in runs.items():
        target = expected / run
        target.mkdir(parents=True)
        for name, data in files.items():
            (target / name).write_bytes(data)
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    (HERE / "versions.json").write_text(json.dumps(versions, indent=2) + "\n")
    print(f"{len(RUNS)} runs of {len(CASES)} cases written to {expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
