"""End-to-end CLI runs in subprocesses: exit codes, file outputs, byte
determinism, and unit scaling. Configs are written per test; every run
uses an isolated output directory.
"""

import csv
import json
import math
import subprocess
import sys

import pytest

MARKOV_CFG = {
    "schema": 1,
    "system": {
        "kind": "markov",
        "pi": [2 / 3, 1 / 3],
        "P": [[0.9, 0.1], [0.2, 0.8]],
    },
    "schedule": {"sides": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]},
}


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "folner_entropy.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# -- rate ---------------------------------------------------------------------


def test_rate_markov(tmp_path):
    cfg = write_cfg(tmp_path, MARKOV_CFG)
    out = tmp_path / "out"
    out.mkdir()
    r = run_cli(["rate", "--config", cfg, "--out", str(out)])
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads(r.stdout)
    assert report["paper_property"] == "thm3_inf"
    assert abs(report["estimate"] - 0.40882192792580463) < 1e-12
    assert report["converged"] is False  # still falling at n = 10
    assert not report["truncated"]
    on_disk = json.loads((out / "rate.json").read_text())
    assert on_disk == report
    with open(out / "rate.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    assert int(rows[-1]["F_size"]) == 10
    rates = [float(row["rate"]) for row in rows]
    assert rates == sorted(rates, reverse=True)


def test_rate_bits_scaling(tmp_path):
    cfg = write_cfg(tmp_path, MARKOV_CFG)
    nats_dir = tmp_path / "nats"
    bits_dir = tmp_path / "bits"
    nats_dir.mkdir()
    bits_dir.mkdir()
    r1 = run_cli(["rate", "--config", cfg, "--out", str(nats_dir)])
    r2 = run_cli(["rate", "--config", cfg, "--out", str(bits_dir), "--bits"])
    assert r1.returncode == 0 and r2.returncode == 0
    nats = json.loads(r1.stdout)
    bits = json.loads(r2.stdout)
    assert bits["units"] == "bits"
    assert abs(bits["estimate"] - nats["estimate"] / math.log(2)) < 1e-12
    with open(bits_dir / "rate.csv") as f:
        header = f.readline()
    assert "block_entropy_bits" in header


def test_rate_determinism(tmp_path):
    cfg = write_cfg(tmp_path, MARKOV_CFG)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    r1 = run_cli(["rate", "--config", cfg, "--out", str(d1)])
    r2 = run_cli(["rate", "--config", cfg, "--out", str(d2)])
    assert r1.stdout == r2.stdout
    assert (d1 / "rate.json").read_bytes() == (d2 / "rate.json").read_bytes()
    assert (d1 / "rate.csv").read_bytes() == (d2 / "rate.csv").read_bytes()


def test_rate_cap_exit(tmp_path):
    cfg = dict(MARKOV_CFG)
    cfg["schedule"] = {"sides": [25, 30]}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["rate", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 4
    assert json.loads(r.stdout)["error"]["kind"] == "cap"


def test_rate_truncated_partial_output(tmp_path):
    cfg = dict(MARKOV_CFG)
    cfg["schedule"] = {"sides": [2, 4, 16]}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["rate", "--config", path, "--out", str(tmp_path), "--max-window", "8"])
    assert r.returncode == 4
    report = json.loads((tmp_path / "rate.json").read_text())
    assert report["truncated"] is True
    assert report["n_used"] == 2
    with open(tmp_path / "rate.csv") as f:
        assert len(list(csv.DictReader(f))) == 2


# -- entropy ------------------------------------------------------------------


def test_entropy_space_form(tmp_path):
    cfg = {
        "schema": 1,
        "space": {"atoms": ["a", "b", "c"], "masses": [0.5, 0.25, 0.25]},
        "alpha": {"blocks": [["a"], ["b"], ["c"]]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["entropy", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout
    report = json.loads(r.stdout)
    assert abs(report["entropy_nats"] - 1.0397207708399179) < 1e-12


def test_entropy_conditional_with_disintegration(tmp_path):
    cfg = {
        "schema": 1,
        "space": {"atoms": [0, 1, 2, 3], "masses": [0.4, 0.3, 0.2, 0.1]},
        "alpha": {"blocks": [[0], [1], [2], [3]]},
        "beta": {"blocks": [[0, 1], [2, 3]]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["entropy", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout
    report = json.loads(r.stdout)
    assert "conditional_entropy_nats" in report
    summary = report["disintegration"]
    assert len(summary) == 2
    masses = [b["mass"] for b in summary]
    assert abs(sum(masses) - 1.0) < 1e-12
    # weighted fiber entropies reassemble the conditional entropy
    mixed = sum(b["mass"] * b["fiber_entropy_nats"] for b in summary)
    assert abs(mixed - report["conditional_entropy_nats"]) < 1e-12


def test_entropy_block_form(tmp_path):
    cfg = {
        "schema": 1,
        "system": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "window": {"box": 3},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["entropy", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout
    report = json.loads(r.stdout)
    assert report["F_size"] == 3
    assert abs(report["block_entropy_nats"] - 3 * math.log(2)) < 1e-12


# -- verify -------------------------------------------------------------------


def test_verify_identities_suite(tmp_path):
    cfg = {"schema": 1, "suite": "identities"}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(
        ["verify", "--config", path, "--out", str(tmp_path), "--trials", "50"]
    )
    assert r.returncode == 0, r.stdout
    report = json.loads(r.stdout)
    assert report["ok"] is True
    assert report["trials"] == 50
    props = {p["name"]: p for p in report["properties"]}
    assert props["join_subadditivity"]["paper_property"] == "prop22_1"
    assert props["chain_rule"]["paper_property"] == "prop22_5"
    assert all(p["violations"] == 0 for p in report["properties"])


def test_verify_subadditivity_violation_exits_3(tmp_path):
    cfg = {
        "schema": 1,
        "suite": "subadditivity",
        "phi": {"kind": "neg_card_squared"},
        "box": {"d": 1, "side": 5},
        "exhaustive": True,
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["verify", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 3
    report = json.loads(r.stdout)
    assert report["ok"] is False
    props = {p["name"]: p for p in report["properties"]}
    assert props["monotonicity"]["violations"] > 0
    assert props["monotonicity"]["witnesses"]


def test_verify_rates_suite(tmp_path):
    cfg = {
        "schema": 1,
        "suite": "rates",
        "system": {"kind": "bernoulli", "probs": [0.5, 0.25, 0.25]},
        "alpha": {"cells": [[0], [1], [2]]},
        "beta": {"cells": [[0], [1, 2]]},
        "schedule": {"sides": [1, 2, 3]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["verify", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout
    report = json.loads(r.stdout)
    props = {p["name"]: p for p in report["properties"]}
    assert props["rate_vs_conditional"]["paper_property"] == "thm7_1"
    assert set(props) >= {
        "rate_vs_conditional",
        "join_rate_subadditive",
        "rate_monotone",
        "rate_chain_bound",
    }


# -- decompose ------------------------------------------------------------------


def test_decompose_mixture(tmp_path):
    cfg = {
        "schema": 1,
        "system": {
            "kind": "mixture",
            "weights": [0.3, 0.7],
            "components": [
                {"kind": "bernoulli", "probs": [0.5, 0.5]},
                {"kind": "bernoulli", "probs": [0.9, 0.1]},
            ],
        },
        "schedule": {"sides": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["decompose", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout
    report = json.loads(r.stdout)
    assert report["ok"] is True
    assert report["certified"] is True
    h2 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert abs(report["rhs"] - (0.3 * math.log(2) + 0.7 * h2)) < 1e-12
    assert report["gap"] <= 1e-3
    assert [c["label"] for c in report["components"]] == [
        "component:0",
        "component:1",
    ]


def test_decompose_split_orbit_witness(tmp_path):
    cfg = {
        "schema": 1,
        "system": {
            "kind": "finite",
            "atoms": [0, 1, 2, 3, 4, 5],
            "masses": [1 / 6] * 6,
            "generators": [[1, 2, 0, 4, 5, 3]],
        },
        "beta": {"blocks": [[0, 1], [2, 3, 4, 5]]},
        "schedule": {"sides": [1, 2, 4]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["decompose", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 3
    report = json.loads(r.stdout)
    assert report["fixed_partition"] is False
    assert report["witness"]["generator"] == 0


# -- folner ---------------------------------------------------------------------


def test_folner_defect_table(tmp_path):
    cfg = {"schema": 1, "d": 1, "sides": [2, 4, 8]}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["folner", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["rows"] == 3
    with open(tmp_path / "folner.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3  # one axis generator per box
    # defect of [0, s) under shift by 1 is exactly 2/s
    by_side = {(int(r["F_size"]), r["generator"]): float(r["defect"]) for r in rows}
    assert by_side[(8, "0")] == 2 / 8


# -- validation -----------------------------------------------------------------


def test_missing_schema_rejected(tmp_path):
    path = write_cfg(tmp_path, {"system": {"kind": "bernoulli", "probs": [1.0]}})
    r = run_cli(["rate", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"]["kind"] == "validation"


def test_bad_transition_rows_rejected(tmp_path):
    cfg = dict(MARKOV_CFG)
    cfg["system"] = {"kind": "markov", "P": [[0.9, 0.2], [0.2, 0.8]]}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["rate", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 2
    assert "sum" in json.loads(r.stdout)["error"]["message"]


def test_chain_without_unique_stationary_vector_rejected(tmp_path):
    cfg = dict(MARKOV_CFG)
    cfg["system"] = {"kind": "markov", "P": [[1.0, 0.0], [0.0, 1.0]]}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["rate", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 2
    assert "not unique" in json.loads(r.stdout)["error"]["message"]


def test_unknown_system_kind_rejected(tmp_path):
    cfg = {"schema": 1, "system": {"kind": "sofic"}, "schedule": {"sides": [1, 2]}}
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["rate", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 2
