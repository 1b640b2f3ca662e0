"""End-to-end CLI runs in subprocesses: exit codes, file outputs, byte
determinism, and unit scaling. Configs are written per test; every run
uses an isolated output directory.
"""

import csv
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from folner_entropy import (
    FiniteProbabilitySpace,
    FolnerSubset,
    Partition,
    cylinder_measure,
    disintegrate,
    entropy,
    markov_shift,
    restrict,
)

MARKOV_CFG = {
    "schema": 1,
    "system": {
        "kind": "markov",
        "pi": [2 / 3, 1 / 3],
        "P": [[0.9, 0.1], [0.2, 0.8]],
    },
    "schedule": {"sides": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]},
}


def _reject_constant(name):
    raise AssertionError(f"CLI stdout holds {name}, which is not JSON")


def run_cli(args, cwd=None):
    r = subprocess.run(
        [sys.executable, "-m", "folner_entropy.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )
    # every report and error is strict JSON: no NaN or Infinity
    if r.stdout.strip():
        json.loads(r.stdout, parse_constant=_reject_constant)
    return r


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


def test_entropy_disintegration_masses_on_a_large_space(tmp_path):
    # past 64 atoms block masses are summed as matrix rows; each entry
    # must still equal the plain per-block sum and the fiber's entropy
    rng = np.random.default_rng(7)
    n = 150
    w = rng.random(n)
    beta_labels = rng.integers(0, 6, size=n)
    w[beta_labels == 5] = 0.0  # one zero-mass block: no fiber, no entry
    masses = (w / w.sum()).tolist()
    space = FiniteProbabilitySpace(range(n), masses)
    alpha = Partition.from_labels(space, rng.integers(0, 4, size=n))
    beta = Partition.from_labels(space, beta_labels)
    cfg = {
        "schema": 1,
        "space": {"atoms": list(range(n)), "masses": masses},
        "alpha": {"blocks": [list(b) for b in alpha.blocks]},
        "beta": {"blocks": [list(b) for b in beta.blocks]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["entropy", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout + r.stderr
    summary = json.loads(r.stdout)["disintegration"]
    dis = disintegrate(space, beta)
    assert [entry["block"] for entry in summary] == [
        list(block) for block in beta.blocks if space.mass_of(block) > 0.0
    ]
    for entry in summary:
        block = tuple(entry["block"])
        fiber = dis.conditional(beta.block_index(block[0]))
        assert entry["mass"] == space.mass_of(block)
        assert entry["fiber_entropy_nats"] == entropy(restrict(alpha, block, fiber))


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


def test_verify_subadditivity_witnesses_match_oracle(tmp_path):
    from test_groups import oracle_subadditivity_report

    from folner_entropy import FolnerSubset
    from folner_entropy.suites import phi_neg_card_squared

    cfg = {
        "schema": 1,
        "suite": "subadditivity",
        "phi": {"kind": "neg_card_squared"},
        "box": {"d": 1, "side": 4},
        "exhaustive": True,
    }
    r = run_cli(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert r.returncode == 3, r.stdout + r.stderr
    props = {p["name"]: p for p in json.loads(r.stdout)["properties"]}
    expected = oracle_subadditivity_report(
        phi_neg_card_squared, FolnerSubset.box(1, 4), exhaustive=True
    )
    for name, prop in props.items():
        assert prop["checked"] == expected.checked[name]
        assert prop["violations"] == expected.violation_count.get(name, 0)
        assert prop["min_slack"] == expected.min_slack[name]
        assert prop["witnesses"] == json.loads(json.dumps(expected.violations[name]))
    assert props["monotonicity"]["witnesses"][0] == [[], [[0]]]


def test_verify_subadditivity_exhaustive_over_limit_exits_2(tmp_path):
    cfg = {
        "schema": 1,
        "suite": "subadditivity",
        "phi": {"kind": "cardinality"},
        "box": {"d": 1, "side": 11},
        "exhaustive": True,
    }
    r = run_cli(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == {
        "kind": "validation",
        "message": "box too large for exhaustive pair checks",
    }
    assert not (tmp_path / "verify.json").exists()


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


def test_decompose_finite_with_beta_partition_and_conditioning(tmp_path):
    # orbits {0,1,2} {3,4} {5} {6} {7}, the last of zero mass; the
    # expected bytes are those written by the per-block restricted traces
    cfg = {
        "schema": 1,
        "system": {
            "kind": "finite",
            "atoms": [0, 1, 2, 3, 4, 5, 6, 7],
            "masses": [0.1, 0.1, 0.1, 0.15, 0.15, 0.3, 0.1, 0.0],
            "generators": [[1, 2, 0, 4, 3, 5, 6, 7]],
        },
        "beta": {"blocks": [[0, 1, 2, 5], [3, 4], [6, 7]]},
        "partition": {"blocks": [[0, 3], [1, 4, 5], [2, 6, 7]]},
        "conditioning": {"kind": "invariant_partition", "blocks": [[0, 1, 2], [3, 4, 5, 6, 7]]},
        "schedule": {"sides": [1, 2, 4]},
    }
    path = write_cfg(tmp_path, cfg)
    r = run_cli(["decompose", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout + r.stderr
    expected = """{
  "certified": true,
  "components": [
    {
      "converged": true,
      "estimate": 0.0,
      "label": "block:0",
      "weight": 0.6000000000000001
    },
    {
      "converged": true,
      "estimate": 0.0,
      "label": "block:1",
      "weight": 0.3
    },
    {
      "converged": true,
      "estimate": 0.0,
      "label": "block:2",
      "weight": 0.1
    }
  ],
  "converged": true,
  "gap": 0.0,
  "lhs": 0.0,
  "ok": true,
  "paper_property": "thm31_decomp",
  "rhs": 0.0,
  "schema": 1,
  "task": "decompose",
  "truncated": false,
  "units": "nats"
}
"""
    assert (tmp_path / "decompose.json").read_text() == expected
    assert r.stdout == expected


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


ROTATION_Z4 = {
    "kind": "finite",
    "atoms": [0, 1, 2, 3],
    "masses": [0.25] * 4,
    "generators": [[1, 2, 3, 0]],
}


@pytest.mark.parametrize(
    "verb, cfg",
    [
        ("entropy", {"window": {"box": 2}, "partition": {"blocks": [[0, 1], [2, 3]]}}),
        ("rate", {"schedule": {"sides": [1, 2, 4]}}),
        ("verify", {
            "suite": "rates",
            "alpha": {"blocks": [[0, 1], [2, 3]]},
            "beta": {"blocks": [[0, 2], [1, 3]]},
            "schedule": {"sides": [1, 2, 4]},
        }),
        ("decompose", {"schedule": {"sides": [1, 2, 4]}}),
        # read before beta, so a moved beta's exit-3 witness report is not written
        ("decompose", {"beta": {"blocks": [[0, 1], [2, 3]]}, "schedule": {"sides": [1, 2]}}),
    ],
)
def test_conditioning_partition_the_action_moves_is_rejected(tmp_path, verb, cfg):
    # the rotation moves block [1, 2, 3]; entropy and rate used to exit 0,
    # rate with "converged": true
    cfg = {
        "schema": 1,
        "system": ROTATION_Z4,
        "conditioning": {"kind": "invariant_partition", "blocks": [[0], [1, 2, 3]]},
        **cfg,
    }
    out = tmp_path / "out"
    r = run_cli([verb, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    _assert_rejected(r, out, "conditioning partition is not fixed")


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


def test_repeated_atom_in_block_rejected(tmp_path):
    cfg = {
        "schema": 1,
        "space": {"atoms": [0, 1, 2], "masses": [0.2, 0.3, 0.5]},
        "alpha": {"blocks": [[0, 0, 1], [2]]},
    }
    r = run_cli(["entropy", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert r.returncode == 2
    error = json.loads(r.stdout)["error"]
    assert error == {"kind": "validation", "message": "blocks overlap"}
    assert not (tmp_path / "entropy.json").exists()


@pytest.mark.parametrize(
    "cells",
    [
        # the third spec, naming no symbol, used to be dropped with exit 0
        [[[0], [1]], [[0, 1]], [[7]]],
        [[[0], [1]]],
    ],
)
def test_mixture_partition_list_must_match_components(tmp_path, cells):
    cfg = {
        "schema": 1,
        "system": {
            "kind": "mixture",
            "weights": [0.3, 0.7],
            "components": [BERNOULLI, {"kind": "bernoulli", "probs": [0.9, 0.1]}],
        },
        "window": {"box": 2},
        "partition": [{"cells": c} for c in cells],
    }
    r = run_cli(["entropy", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert r.returncode == 2, r.stdout + r.stderr
    error = json.loads(r.stdout)["error"]
    assert error == {"kind": "validation", "message": "one partition per component required"}
    assert not (tmp_path / "entropy.json").exists()


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


SPACE_CFG = '{"schema": 1, "space": {"atoms": [0, 1], "masses": [%s, %s]}, "alpha": {"blocks": [[0], [1]]}}'


def _assert_rejected(r, out, message):
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == {"kind": "validation", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_json_number_literals_rejected(tmp_path, literal):
    # masses [NaN, NaN] used to exit 0 with "entropy_nats": -0.0
    path = tmp_path / "cfg.json"
    path.write_text(SPACE_CFG % (literal, literal))
    out = tmp_path / "out"
    r = run_cli(["entropy", "--config", str(path), "--out", str(out)])
    _assert_rejected(r, out, f"config is not valid JSON: {literal} is not a JSON number")


def test_overflowing_number_reaches_the_validator(tmp_path):
    # 1e999 is valid JSON and parses to inf
    path = tmp_path / "cfg.json"
    path.write_text(SPACE_CFG % ("1e999", "0.0"))
    out = tmp_path / "out"
    r = run_cli(["entropy", "--config", str(path), "--out", str(out)])
    _assert_rejected(r, out, "masses must sum to 1")


@pytest.mark.parametrize("n", ["-1", "63"])
def test_max_window_outside_0_to_62_rejected(tmp_path, n):
    # -1 used to crash with a traceback and exit 1
    out = tmp_path / "out"
    r = run_cli(["rate", "--config", write_cfg(tmp_path, MARKOV_CFG), "--out", str(out),
                 "--max-window", n])
    _assert_rejected(r, out, f"--max-window must be in 0..62, got {n}")


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-0.5", "-0.5")])
def test_tol_must_be_finite_and_nonnegative(tmp_path, tol, shown):
    # nan used to exit 0 and write "tol": NaN into rate.json
    out = tmp_path / "out"
    r = run_cli(["rate", "--config", write_cfg(tmp_path, MARKOV_CFG), "--out", str(out),
                 "--tol", tol])
    _assert_rejected(r, out, f"--tol must be a finite number >= 0, got {shown}")


@pytest.mark.parametrize("flag", [["--tol", "-1e-3"], ["--tol=-1e-3"], ["--tol", "-inf"]])
def test_negative_tol_in_any_form_gets_the_validation_json(tmp_path, flag):
    # "--tol -1e-3" used to exit 2 with argparse usage text and empty stdout
    out = tmp_path / "out"
    r = run_cli(["rate", "--config", write_cfg(tmp_path, MARKOV_CFG), "--out", str(out), *flag])
    shown = "-inf" if flag[-1] == "-inf" else "-0.001"
    _assert_rejected(r, out, f"--tol must be a finite number >= 0, got {shown}")


def _assert_validation_error(r, tmp_path, message):
    assert r.returncode == 2, r.stdout + r.stderr
    error = json.loads(r.stdout)["error"]
    assert error["kind"] == "validation"
    assert message in error["message"]
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"samples": 0}, '"samples" must be an integer >= 1'),
        ({"samples": -2}, '"samples" must be an integer >= 1'),
        ({"samples": 1.5}, '"samples" must be an integer >= 1'),
        ({"exhaustive": "no"}, '"exhaustive" must be true or false'),
        ({"exhaustive": 1}, '"exhaustive" must be true or false'),
        # 2^21 + 8 draw elements; checked before any draw
        ({"box": {"d": 1, "side": 8}, "samples": 2**18 + 1},
         "samples * len(box) must be at most 2097152, got 262145 * 8"),
    ],
)
def test_verify_subadditivity_rejects_bad_samples_and_exhaustive(tmp_path, extra, message):
    # samples 0 used to pass -|F|^2 with nothing checked; "no" ran exhaustively
    cfg = {
        "schema": 1,
        "suite": "subadditivity",
        "phi": {"kind": "neg_card_squared"},
        "box": {"d": 1, "side": 12},
        **extra,
    }
    r = run_cli(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    _assert_validation_error(r, tmp_path, message)


@pytest.mark.parametrize(
    "suite, trials, flag",
    [
        ("identities", 0, None),
        ("exhaustion", -3, None),
        ("disintegration", 2.5, None),
        ("identities", "50", None),
        ("identities", True, None),
        ("identities", None, "0"),
        ("exhaustion", 5, "-3"),
    ],
)
def test_verify_trials_must_be_positive_integers(tmp_path, suite, trials, flag):
    # "trials": 0 used to run the default 500 trials; -3 ran none and passed
    cfg = {"schema": 1, "suite": suite}
    if trials is not None:
        cfg["trials"] = trials
    args = ["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    if flag is not None:
        args += ["--trials", flag]
    r = run_cli(args)
    _assert_validation_error(r, tmp_path, '"trials" must be an integer >= 1')


@pytest.mark.parametrize("suite", ["identities", "disintegration", "exhaustion", "subadditivity"])
@pytest.mark.parametrize("flag", [False, True])
def test_verify_negative_seed_is_a_validation_error(tmp_path, suite, flag):
    # used to exit 2 with numpy's "expected non-negative integer"
    cfg = {"schema": 1, "suite": suite, "trials": 3, "seed": 0 if flag else -1}
    if suite == "subadditivity":
        cfg.update(phi={"kind": "cardinality"}, box={"d": 1, "side": 4})
    args = ["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
    r = run_cli(args + ["--seed", "-1"] if flag else args)
    assert json.loads(r.stdout)["error"]["message"] == "seed must be a nonnegative integer, got -1"
    _assert_validation_error(r, tmp_path, "seed must be a nonnegative integer")


@pytest.mark.parametrize("suite", ["identities", "disintegration", "exhaustion"])
def test_verify_max_atoms_below_two_is_a_validation_error(tmp_path, suite):
    # used to print numpy's "low >= high"
    cfg = {"schema": 1, "suite": suite, "trials": 3, "max_atoms": 1}
    r = run_cli(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert json.loads(r.stdout)["error"]["message"] == "max_atoms must be at least 2"
    _assert_validation_error(r, tmp_path, "max_atoms must be at least 2")



@pytest.mark.parametrize("suite", ["identities", "disintegration", "exhaustion"])
def test_verify_max_atoms_past_the_limit_is_a_validation_error(tmp_path, suite):
    # 10**8 used to run on past a 20 s timeout instead of exiting 2
    cfg = {"schema": 1, "suite": suite, "trials": 3, "max_atoms": 2**17 + 1}
    r = run_cli(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    _assert_validation_error(r, tmp_path, "max_atoms must be at most 131072, got 131073")


@pytest.mark.parametrize("suite", [[1], {"a": 1}])
def test_verify_non_string_suite_is_unknown(tmp_path, suite):
    # used to exit 2 with "unhashable type: 'list'"
    cfg = {"schema": 1, "suite": suite}
    r = run_cli(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert json.loads(r.stdout)["error"]["message"] == f"unknown suite: {suite!r}"
    _assert_validation_error(r, tmp_path, "unknown suite")


def test_entropy_unknown_symbol_is_a_validation_error(tmp_path):
    # used to exit 2 with the bare KeyError message "7"
    cfg = {
        "schema": 1,
        "system": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "window": {"box": 2},
        "partition": {"cells": [[0], [7]]},
    }
    out = tmp_path / "out"
    r = run_cli(["entropy", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    _assert_rejected(r, out, "unknown symbol")


_BERNOULLI_ENTROPY = {"schema": 1, "system": {"kind": "bernoulli", "probs": [0.5, 0.5]}, "window": {"box": 2}}
_SPACE_ENTROPY = {"schema": 1, "space": {"atoms": [0, 1, 2], "masses": [0.2, 0.3, 0.5]}}


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({**_SPACE_ENTROPY, "alpha": {"blocks": [[[0]], [1], [2]]}}, "unknown atom"),
        ({**_BERNOULLI_ENTROPY, "partition": {"cells": [[[0]], [1]]}}, "unknown symbol"),
        ({**_BERNOULLI_ENTROPY, "partition": {"cells": 5}}, "cells must be a list of lists"),
        (
            {"schema": 1, "space": {"atoms": ["0", "1"], "masses": [0.5, 0.5]}, "alpha": {"blocks": "01"}},
            "blocks must be a list of lists",
        ),
        (
            {"schema": 1, "space": {"atoms": [[0], 1], "masses": [0.5, 0.5]}, "alpha": {"blocks": [[1]]}},
            "atom ids must be hashable",
        ),
    ],
    ids=["unhashable-atom", "unhashable-symbol", "cells-not-a-list", "blocks-a-string", "unhashable-atom-id"],
)
def test_entropy_malformed_groups_are_named_validation_errors(tmp_path, cfg, message):
    # the first three used to exit 2 with Python's "unhashable type: 'list'"
    # and "'int' object is not iterable"; the string was split into atoms
    out = tmp_path / "out"
    r = run_cli(["entropy", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    _assert_rejected(r, out, message)


_MIXTURE_DECOMPOSE = {
    "schema": 1,
    "system": {"kind": "mixture", "weights": [0.5, 0.5], "components": [_BERNOULLI_ENTROPY["system"]] * 2},
    "schedule": {"sides": [1, 2]},
}
_PYTHON_PHRASES = ("argument of type", "object has no attribute", "is not iterable", "not subscriptable")


@pytest.mark.parametrize(
    "verb, cfg, name",
    [
        ("entropy", {**_BERNOULLI_ENTROPY, "system": 5}, '"system"'),
        ("rate", {**MARKOV_CFG, "schedule": 5}, '"schedule"'),
        ("entropy", {**_BERNOULLI_ENTROPY, "partition": 5}, '"partition"'),
        ("entropy", {**_BERNOULLI_ENTROPY, "conditioning": 5}, '"conditioning"'),
        (
            "entropy",
            {**_BERNOULLI_ENTROPY, "system": {"kind": "mixture", "weights": [1.0], "components": [5]}},
            '"components" entry',
        ),
        ("entropy", {"schema": 1, "space": 5, "alpha": {"blocks": [[0]]}}, '"space"'),
        ("entropy", {**_SPACE_ENTROPY, "alpha": 5}, '"alpha"'),
        ("entropy", {**_SPACE_ENTROPY, "alpha": {"blocks": [[0, 1, 2]]}, "beta": 5}, '"beta"'),
        ("decompose", {**_MIXTURE_DECOMPOSE, "beta": 5}, '"beta"'),
        ("entropy", {**_BERNOULLI_ENTROPY, "window": 5}, '"window"'),
        ("verify", {"schema": 1, "suite": "subadditivity", "phi": 5, "box": {"side": 4}}, '"phi"'),
        ("verify", {"schema": 1, "suite": "subadditivity", "phi": {"kind": "cardinality"}, "box": 5}, '"box"'),
        (
            "verify",
            {"schema": 1, "suite": "rates", "system": MARKOV_CFG["system"], "alpha": 5, "beta": None},
            '"alpha"',
        ),
    ],
    ids=[
        "system", "schedule", "partition", "conditioning", "component", "space", "alpha",
        "entropy-beta", "decompose-beta", "window", "phi", "box", "rates-alpha",
    ],
)
def test_a_non_object_value_at_an_object_key_is_named(tmp_path, verb, cfg, name):
    # each used to exit 2 with "argument of type 'int' is not iterable", and
    # "box" to escape main with an AttributeError traceback and exit 1
    out = tmp_path / "out"
    r = run_cli([verb, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert not any(phrase in r.stdout + r.stderr for phrase in _PYTHON_PHRASES)
    _assert_rejected(r, out, f"{name} must be an object, got 5")


def test_markov_transition_matrix_that_is_a_number_is_a_validation_error(tmp_path):
    # used to escape main with an IndexError traceback and exit 1
    cfg = {**MARKOV_CFG, "system": {"kind": "markov", "P": 5}}
    out = tmp_path / "out"
    r = run_cli(["rate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    _assert_rejected(r, out, "square transition matrix required")


FINITE_SWAP = {"kind": "finite", "atoms": [0, 1], "masses": [0.5, 0.5], "generators": [[1, 0]]}


@pytest.mark.parametrize("blocks", [[[0], [1]], [[0, 1]]])
def test_one_blocks_spec_serves_every_finite_mixture_component(tmp_path, blocks):
    # the spec used to be read as one partition per block: two blocks exited 2
    # with "finite systems need a space partition", one block with "one
    # partition per component required"
    system = {"kind": "mixture", "weights": [0.5, 0.5], "components": [FINITE_SWAP, FINITE_SWAP]}
    base = {"schema": 1, "system": system, "window": {"box": 3}}
    values = []
    for i, partition in enumerate([{"blocks": blocks}, [{"blocks": blocks}] * 2]):
        cfg = write_cfg(tmp_path, {**base, "partition": partition}, f"cfg{i}.json")
        r = run_cli(["entropy", "--config", cfg, "--out", str(tmp_path / f"out{i}")])
        assert r.returncode == 0, r.stdout + r.stderr
        values.append(json.loads(r.stdout)["block_entropy_nats"])
    assert values[0] == values[1]
    other = {**FINITE_SWAP, "masses": [0.25, 0.75], "generators": [[0, 1]]}
    cfg = {**base, "system": {**system, "components": [FINITE_SWAP, other]}, "partition": {"blocks": blocks}}
    out = tmp_path / "mismatch"
    r = run_cli(["entropy", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    _assert_rejected(r, out, "space mismatch")


# -- windows ----------------------------------------------------------------------


def test_folner_table_equals_frozenset_oracle(tmp_path):
    from test_groups import OracleSubset, oracle_invariance_defect

    sides, gens = [1, 2, 4, 8, 16], [[1, 0], [0, 1], [3, -2]]
    cfg = {"schema": 1, "d": 2, "sides": sides, "generators": gens}
    r = run_cli(["folner", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout + r.stderr
    lines = ["n,F_size,generator,defect"]
    for n, s in enumerate(sides, 1):
        box = OracleSubset.box(2, s)
        for gi, g in enumerate(gens):
            lines.append(f"{n},{len(box)},{gi},{oracle_invariance_defect(box, g)!r}")
    assert (tmp_path / "folner.csv").read_text() == "\n".join(lines) + "\n"


MARKOV3 = {"kind": "markov", "P": [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]]}


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (
            {"system": MARKOV3, "window": {"elements": [[-4], [-1], [0], [3]]}},
            '{\n  "F_size": 4,\n  "block_entropy_nats": 4.048755851973352,\n'
            '  "schema": 1,\n  "task": "entropy",\n  "units": "nats"\n}\n',
        ),
        (
            {
                "system": MARKOV3,
                "window": {"elements": [[5], [1], [3]]},
                "conditioning": {"kind": "symbol_factor", "labels": [0, 0, 1]},
            },
            '{\n  "F_size": 3,\n  "block_entropy_nats": 1.5423231125984764,\n'
            '  "schema": 1,\n  "task": "entropy",\n  "units": "nats"\n}\n',
        ),
    ],
)
def test_entropy_on_gapped_window_keeps_its_bytes(tmp_path, cfg, expected):
    # the bytes written before windows became sorted int64 row arrays
    path = write_cfg(tmp_path, {"schema": 1, **cfg})
    r = run_cli(["entropy", "--config", path, "--out", str(tmp_path)])
    assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "entropy.json").read_text() == expected
    assert r.stdout == expected


def test_gapped_symbol_factor_value_matches_the_cylinder_oracle():
    # H(X^F | phi^F) = H(X^F) - H(phi^F), every word's mass by explicit path sums
    mk3 = markov_shift(None, MARKOV3["P"])
    F = FolnerSubset([(1,), (3,), (5,)], 1)
    phi = (0, 0, 1)
    words, factor_masses = [], {}
    for word in itertools.product(range(3), repeat=3):
        mass = cylinder_measure(mk3, F, dict(zip(sorted(F.elements), word)))
        words.append(mass)
        key = tuple(phi[s] for s in word)
        factor_masses[key] = factor_masses.get(key, 0.0) + mass

    def H(masses):
        return -sum(p * math.log(p) for p in masses if p > 0.0)

    assert abs(1.5423231125984764 - (H(words) - H(factor_masses.values()))) <= 1e-12


BERNOULLI = {"kind": "bernoulli", "probs": [0.5, 0.5]}


@pytest.mark.parametrize(
    "verb, cfg, message",
    [
        # each was accepted before: truncated, or read as a set
        ("entropy", {"system": BERNOULLI, "window": {"elements": [[0.5], [1.9]]}},
         '"elements" coordinate must be an integer, got 0.5'),
        ("entropy", {"system": BERNOULLI, "window": {"box": 2.7}},
         '"box" must be an integer, got 2.7'),
        ("entropy", {"system": BERNOULLI, "window": {"elements": [[True], [0]]}},
         '"elements" coordinate must be an integer, got True'),
        ("entropy", {"system": BERNOULLI, "window": {"elements": [[0], [0]]}},
         "window elements must be distinct"),
        ("rate", {"system": BERNOULLI, "schedule": {"sides": [1, 2.5]}},
         '"sides" entry must be an integer, got 2.5'),
        ("rate", {"system": BERNOULLI, "schedule": {"sides": [1, 2], "n_max": 1.0}},
         '"n_max" must be an integer, got 1.0'),
        ("folner", {"d": 1, "sides": [1, 2.5]}, '"sides" entry must be an integer, got 2.5'),
        ("folner", {"d": 2.0, "sides": [1, 2]}, '"d" must be an integer, got 2.0'),
        ("folner", {"d": 1, "sides": [1, 2], "generators": [[0.5]]},
         '"generators" coordinate must be an integer, got 0.5'),
        ("verify", {"suite": "subadditivity", "phi": {"kind": "cardinality"},
                    "box": {"d": 1, "side": 4.0}}, '"side" must be an integer, got 4.0'),
        # 2.7 computed on Z^2 and true on Z
        ("entropy", {"system": {**BERNOULLI, "d": 2.7}, "window": {"box": 2}},
         '"d" must be an integer, got 2.7'),
        ("entropy", {"system": {**BERNOULLI, "d": True}, "window": {"box": 2}},
         '"d" must be an integer, got True'),
        ("verify", {"suite": "identities", "trials": 3, "seed": 1.5},
         '"seed" must be an integer, got 1.5'),
        ("verify", {"suite": "identities", "trials": 3, "max_atoms": 4.9},
         '"max_atoms" must be an integer, got 4.9'),
        # [0.2, 0.7] was the trivial factor [0, 0]: 1.4036 nats instead of 0.0
        ("entropy", {"system": MARKOV_CFG["system"], "window": {"box": 3},
                     "conditioning": {"kind": "symbol_factor", "labels": [0.2, 0.7]}},
         '"labels" entry must be an integer, got 0.2'),
        # both were cast to the swap (1, 0)
        ("entropy", {"system": {"kind": "finite", "atoms": [0, 1], "masses": [0.5, 0.5],
                                "generators": [[1.5, 0.2]]}, "window": {"box": 2}},
         "generator is not a permutation"),
        ("entropy", {"system": {"kind": "finite", "atoms": [0, 1], "masses": [0.5, 0.5],
                                "generators": [[True, False]]}, "window": {"box": 2}},
         "generator is not a permutation"),
    ],
)
def test_window_fields_must_be_integers(tmp_path, verb, cfg, message):
    out = tmp_path / "out"
    r = run_cli([verb, "--config", write_cfg(tmp_path, {"schema": 1, **cfg}), "--out", str(out)])
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == {"kind": "validation", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, cfg, message",
    [
        # the window is read before the partition, whose cells overlap
        ("entropy", {"system": BERNOULLI, "window": {}, "partition": {"cells": [[0, 1], [1]]}},
         'window needs "box" or "elements"'),
        # alpha before beta
        ("verify", {"suite": "rates", "system": BERNOULLI, "schedule": {"sides": [1]}},
         'config is missing "alpha"'),
        # exhaustive before box
        ("verify", {"suite": "subadditivity", "phi": {"kind": "cardinality"}, "exhaustive": "no"},
         "\"exhaustive\" must be true or false, got 'no'"),
        # the schedule before beta
        ("decompose", {"system": BERNOULLI, "schedule": {"sides": [1.5]}, "beta": {}},
         '"sides" entry must be an integer, got 1.5'),
    ],
)
def test_a_config_with_two_faults_reports_the_one_its_verb_reads_first(tmp_path, verb, cfg, message):
    out = tmp_path / "out"
    r = run_cli([verb, "--config", write_cfg(tmp_path, {"schema": 1, **cfg}), "--out", str(out)])
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == {"kind": "validation", "message": message}
    assert not out.exists()
