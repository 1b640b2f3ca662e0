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
            '{\n  "F_size": 3,\n  "block_entropy_nats": 1.542323112598476,\n'
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
