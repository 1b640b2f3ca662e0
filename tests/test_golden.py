"""Golden corpus of CLI runs: every case of ``golden/cases.json`` runs
in-process through ``cli.main``, plain and with ``--bits``, and must
reproduce the stored exit code, stdout and output files byte for byte.
Stdout must be strict JSON (no NaN or Infinity).

The expected files live in ``golden/expected/<case>/`` (``<case>--bits``
for the ``--bits`` run); ``golden/versions.json`` records the Python and
numpy versions they were written with. ``golden/regenerate.py`` rewrites
them; run it only when a change alters CLI bytes on purpose, so that the
diff of ``golden/expected/`` shows what changed.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from folner_entropy import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
RUNS = [(case, bits) for case in CASES for bits in (False, True)]


def run_id(case: dict, bits: bool) -> str:
    return case["name"] + ("--bits" if bits else "")


def run_case(case: dict, bits: bool, work: Path) -> dict:
    """Run one case in ``work``; return {file name: bytes} of its exit
    code, its stdout and every file it wrote into its output directory."""
    config, out = work / "config.json", work / "out"
    out.mkdir()
    config.write_text(json.dumps(case["config"]))
    argv = [case["verb"], "--config", str(config), "--out", str(out)] + (["--bits"] if bits else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return {"exit_code": f"{code}\n".encode(), "stdout": stdout.getvalue().encode(), **files}


def _reject_constant(name):
    raise AssertionError(f"CLI stdout holds {name}, which is not JSON")


@pytest.mark.parametrize("case, bits", RUNS, ids=[run_id(c, b) for c, b in RUNS])
def test_cli_output_matches_the_golden_corpus(case, bits, tmp_path):
    got = run_case(case, bits, tmp_path)
    expected = GOLDEN / "expected" / run_id(case, bits)
    want = {p.name: p.read_bytes() for p in sorted(expected.iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
    json.loads(got["stdout"], parse_constant=_reject_constant)


def test_every_verb_and_verify_suite_has_a_golden_case():
    # a verb or suite added to the dispatch tables ships with byte-level coverage
    assert set(cli._VERBS) - {case["verb"] for case in CASES} == set()
    suites = {case["config"].get("suite") for case in CASES if case["verb"] == "verify"}
    assert set(cli._SUITES) - suites == set()


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus_state():
    files = [GOLDEN / "versions.json", *(GOLDEN / "expected").rglob("*")]
    return sorted((str(p.relative_to(GOLDEN)), p.stat().st_mtime_ns) for p in files)


def test_regenerate_check_passes_on_the_committed_corpus(capsys):
    # --check writes nothing into the corpus
    regenerate = _regenerate()
    before = _corpus_state()
    assert regenerate.main(["--check"]) == 0
    assert capsys.readouterr().out == ""
    assert _corpus_state() == before


def test_regenerate_check_lists_changed_new_and_missing(tmp_path):
    regenerate = _regenerate()
    runs = {"a": {"stdout": b"1", "exit_code": b"0\n"}, "b": {"stdout": b"2"}, "c": {"stdout": b"3"}}
    for run, files in {"a": {"stdout": b"1", "exit_code": b"4\n", "rate.csv": b""}, "b": {}, "d": {}}.items():
        (tmp_path / run).mkdir()
        for name, data in files.items():
            (tmp_path / run / name).write_bytes(data)
    assert regenerate.check(tmp_path, runs) == [
        "changed a/exit_code",
        "missing a/rate.csv",
        "new b/stdout",
        "new c",
        "missing d",
    ]
    assert regenerate.check(tmp_path / "absent", {"a": {}}) == ["new a"]
