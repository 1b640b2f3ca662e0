"""Batch front door: run entropy/rate/verify/decompose/folner jobs from
JSON configs, emitting CSV traces and JSON reports.

Contract highlights: configs carry a top-level ``"schema": 1``; all
validation happens before any computation; outputs are written
atomically into the --out directory and the JSON report is echoed to
stdout; identical config and seed produce byte-identical outputs.
Exit codes: 0 success, 2 validation error, 3 property violation,
4 resource cap.

Units are nats; --bits rescales entropy-valued fields of the entropy,
rate, and decompose reports by 1/log 2 at serialization (verify slacks
stay in nats because their tolerances are nat-denominated, and window
set functions need not be entropies at all).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .decomposition import decompose_entropy, fixed_partition_witness
from .engine import (
    IDENTITY_PROPERTY_LABELS,
    RATE_PROPERTY_LABELS,
    SUBADDITIVITY_PROPERTY_LABELS,
    RateTrace,
    conditional_block_entropy,
    entropy_rate,
    verify_rate_inequalities,
)
from .groups import (
    FolnerSequence,
    FolnerSubset,
    invariance_defect,
    verify_subadditive_hypotheses,
)
from .spaces import (
    FiniteProbabilitySpace,
    Partition,
    conditional_entropy,
    disintegrate,
    entropy,
    restrict,
)
from .suites import (
    phi_cardinality,
    phi_neg_card_squared,
    sweep_disintegration,
    sweep_exhaustion,
    sweep_identities,
    window_entropy_phi,
)
from .systems import (
    DEFAULT_PATTERN_CAP,
    EnumerationCapError,
    FinitePMPAction,
    MixtureSystem,
    ShiftSystem,
    SubAlgebraSpec,
    SymbolPartition,
    bernoulli_shift,
    markov_shift,
    mixture,
)

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_CAP = 4

DISINTEGRATION_PROPERTY_LABELS = {
    "reconstruction": "def_disintegration",
    "mass_function_integral": "thm5_mfun",
}
EXHAUSTION_PROPERTY_LABELS = {
    "chain_monotone": "thm4_exhaustion",
    "chain_vanishes": "thm4_exhaustion",
}
# verify suite -> (sweep, default trials, default tolerance, property labels)
SWEEPS = {
    "identities": (sweep_identities, 500, 1e-9, IDENTITY_PROPERTY_LABELS),
    "disintegration": (sweep_disintegration, 1000, 1e-12, DISINTEGRATION_PROPERTY_LABELS),
    "exhaustion": (sweep_exhaustion, 200, 1e-12, EXHAUSTION_PROPERTY_LABELS),
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigError('config must declare "schema": 1')
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f'config is missing "{key}"')
    return cfg[key]


def _positive_int(cfg: dict, key: str, default: int, override: Optional[int] = None) -> int:
    """An integer >= 1 from the command line or the config; only an
    absent value takes the default."""
    value = override if override is not None else cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f'"{key}" must be an integer >= 1, got {value!r}')
    return value


def _integer(value, what: str) -> int:
    """An integer config value; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _build_space(obj: dict) -> FiniteProbabilitySpace:
    atoms = _require(obj, "atoms")
    masses = _require(obj, "masses")
    return FiniteProbabilitySpace(atoms, masses)


def _build_system(obj: dict):
    kind = _require(obj, "kind")
    if kind == "bernoulli":
        return bernoulli_shift(
            _require(obj, "probs"), _integer(obj.get("d", 1), '"d"'), obj.get("alphabet")
        )
    if kind == "markov":
        P = np.asarray(_require(obj, "P"), dtype=np.float64)
        pi = obj.get("pi")
        pi = None if pi is None else np.asarray(pi, dtype=np.float64)
        # CLI-level stationarity gate is looser than the library default
        return markov_shift(pi, P, obj.get("alphabet"), stationarity_tol=1e-10)
    if kind == "finite":
        space = _build_space(obj)
        return FinitePMPAction(space, _require(obj, "generators"))
    if kind == "mixture":
        comps = [_build_system(c) for c in _require(obj, "components")]
        return mixture(comps, _require(obj, "weights"))
    raise ConfigError(f"unknown system kind: {kind!r}")


def _build_partition(system, obj):
    """Partition spec: {"blocks": ...} on a finite space, {"cells": ...}
    on a shift alphabet, a list of per-component specs for mixtures,
    or null for the system's default."""
    if obj is None:
        return None
    if isinstance(system, MixtureSystem):
        if isinstance(obj, list):
            return [
                _build_partition(comp, sub)
                for comp, sub in zip(system.components, obj)
            ]
        return _build_partition(system.components[0], obj)
    if isinstance(system, FinitePMPAction):
        return Partition(system.space, _require(obj, "blocks"))
    if isinstance(system, ShiftSystem):
        return SymbolPartition(system.alphabet, _require(obj, "cells"))
    raise ConfigError("unsupported system kind")


def _shift_alphabet(system):
    if isinstance(system, ShiftSystem):
        return system.alphabet
    if isinstance(system, MixtureSystem):
        return system.shared_alphabet()
    raise ConfigError("symbol factors need a shift system")


def _build_conditioning(system, obj) -> Optional[SubAlgebraSpec]:
    if obj is None:
        return None
    kind = _require(obj, "kind")
    if kind == "trivial":
        return SubAlgebraSpec.trivial()
    if kind == "invariant_partition":
        if not isinstance(system, FinitePMPAction):
            raise ConfigError("invariant partitions condition finite systems")
        return SubAlgebraSpec.invariant_partition(
            Partition(system.space, _require(obj, "blocks"))
        )
    if kind == "symbol_factor":
        labels = _require(obj, "labels")
        alphabet = _shift_alphabet(system)
        if len(labels) != len(alphabet):
            raise ConfigError("labels must align with the alphabet")
        return SubAlgebraSpec.symbol_factor(
            {sym: _integer(v, '"labels" entry') for sym, v in zip(alphabet, labels)}
        )
    raise ConfigError(f"unknown conditioning kind: {kind!r}")


def _build_schedule(obj: dict, d: int) -> tuple:
    sides = tuple(_integer(s, '"sides" entry') for s in _require(obj, "sides"))
    n_max = obj.get("n_max")
    return FolnerSequence(d, sides), (None if n_max is None else _integer(n_max, '"n_max"'))


def _build_window(obj: dict, d: int) -> FolnerSubset:
    if "box" in obj:
        return FolnerSubset.box(d, _integer(obj["box"], '"box"'))
    if "elements" in obj:
        elems = [[_integer(x, '"elements" coordinate') for x in e] for e in obj["elements"]]
        window = FolnerSubset(elems, d)
        if len(window) != len(elems):
            raise ConfigError("window elements must be distinct")
        return window
    raise ConfigError('window needs "box" or "elements"')


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _jsonable(x):
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(x) if isinstance(x, float) else str(x) for x in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _trace_csv(trace: RateTrace, bits: bool) -> str:
    name = "block_entropy_bits" if bits else "block_entropy_nats"
    scale = LN2 if bits else 1.0
    rows = [
        (e.n, e.F_size, e.block_entropy / scale, e.rate / scale, e.running_inf / scale)
        for e in trace.entries
    ]
    return _csv_text(["n", "F_size", name, "rate", "running_inf"], rows)


def _emit(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    _write_atomic(path, text)
    return path


def _finish(report: dict, out_dir: str, stem: str, code: int) -> int:
    text = _json_text(report)
    _emit(out_dir, stem + ".json", text)
    sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _scaled(x: float, bits: bool) -> float:
    return float(x) / LN2 if bits else float(x)


def cmd_entropy(cfg: dict, args) -> int:
    bits = args.bits
    units = "bits" if bits else "nats"
    suffix = "_bits" if bits else "_nats"
    if "space" in cfg:
        space = _build_space(cfg["space"])
        alpha = Partition(space, _require(_require(cfg, "alpha"), "blocks"))
        report = {
            "schema": 1,
            "task": "entropy",
            "units": units,
            "entropy" + suffix: _scaled(entropy(alpha), bits),
        }
        if cfg.get("beta") is not None:
            beta = Partition(space, _require(cfg["beta"], "blocks"))
            report["conditional_entropy" + suffix] = _scaled(
                conditional_entropy(alpha, beta), bits
            )
            dis = disintegrate(space, beta)
            summary = []
            for bi, block in enumerate(beta.blocks):
                if bi not in dis.conditional_spaces:
                    continue
                fiber = dis.conditional(bi)
                summary.append(
                    {
                        "block": list(block),
                        "mass": space.mass_of(block),
                        "fiber_entropy"
                        + suffix: _scaled(entropy(restrict(alpha, block, fiber)), bits),
                    }
                )
            report["disintegration"] = summary
        return _finish(report, args.out, "entropy", EXIT_OK)
    system = _build_system(_require(cfg, "system"))
    window = _build_window(_require(cfg, "window"), system.d)
    alpha = _build_partition(system, cfg.get("partition"))
    C = _build_conditioning(system, cfg.get("conditioning"))
    value = conditional_block_entropy(system, alpha, window, C, None, args.cap)
    report = {
        "schema": 1,
        "task": "entropy",
        "units": units,
        "F_size": len(window),
        "block_entropy" + suffix: _scaled(value, bits),
    }
    return _finish(report, args.out, "entropy", EXIT_OK)


def cmd_rate(cfg: dict, args) -> int:
    system = _build_system(_require(cfg, "system"))
    alpha = _build_partition(system, cfg.get("partition"))
    C = _build_conditioning(system, cfg.get("conditioning"))
    seq, n_max = _build_schedule(_require(cfg, "schedule"), system.d)
    tol = args.tol if args.tol is not None else 1e-3
    trace, rep = entropy_rate(system, alpha, C, seq, n_max, tol, args.cap)
    _emit(args.out, "rate.csv", _trace_csv(trace, args.bits))
    bits = args.bits
    report = {
        "schema": 1,
        "task": "rate",
        "paper_property": "thm3_inf",
        "units": "bits" if bits else "nats",
        "estimate": _scaled(rep.estimate, bits),
        "inf_value": _scaled(rep.inf_value, bits),
        "last_gap": _scaled(rep.last_gap, bits),
        "converged": rep.converged,
        "n_used": rep.n_used,
        "truncated": rep.truncated,
        "method": rep.method,
        "tol": rep.tol,
    }
    return _finish(report, args.out, "rate", EXIT_CAP if rep.truncated else EXIT_OK)


def _sweep_properties(report, labels: dict) -> list:
    out = []
    for name in sorted(report.stats):
        s = report.stats[name]
        out.append(
            {
                "name": name,
                "paper_property": labels.get(name, name),
                "checked": s.checked,
                "violations": s.violations,
                "min_slack": s.min_slack,
                "tolerance": s.tolerance,
            }
        )
    return out


def cmd_verify(cfg: dict, args) -> int:
    suite = _require(cfg, "suite")
    seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0), '"seed"')
    report = {"schema": 1, "task": "verify", "suite": suite, "seed": seed}
    if suite in SWEEPS:
        sweep_fn, default_trials, default_tol, labels = SWEEPS[suite]
        tol = args.tol if args.tol is not None else default_tol
        sweep = sweep_fn(
            _positive_int(cfg, "trials", default_trials, args.trials),
            seed,
            _integer(cfg.get("max_atoms", 10), '"max_atoms"'),
            tolerance=tol,
        )
        report["trials"] = sweep.trials
        report["properties"] = _sweep_properties(sweep, labels)
        report["ok"] = sweep.ok
        return _finish(
            report, args.out, "verify", EXIT_OK if sweep.ok else EXIT_VIOLATION
        )
    if suite == "subadditivity":
        tol = args.tol if args.tol is not None else 1e-9
        phi_cfg = _require(cfg, "phi")
        phi_kind = _require(phi_cfg, "kind")
        if phi_kind == "cardinality":
            phi = phi_cardinality
        elif phi_kind == "neg_card_squared":
            phi = phi_neg_card_squared
        elif phi_kind == "window_entropy":
            system = _build_system(_require(phi_cfg, "system"))
            phi = window_entropy_phi(
                system,
                _build_partition(system, phi_cfg.get("partition")),
                _build_conditioning(system, phi_cfg.get("conditioning")),
                cap=args.cap,
            )
        else:
            raise ConfigError(f"unknown phi kind: {phi_kind!r}")
        exhaustive = cfg.get("exhaustive")
        if "exhaustive" in cfg and not isinstance(exhaustive, bool):
            raise ConfigError(f'"exhaustive" must be true or false, got {exhaustive!r}')
        box_cfg = _require(cfg, "box")
        box = FolnerSubset.box(
            _integer(box_cfg.get("d", 1), '"d"'), _integer(_require(box_cfg, "side"), '"side"')
        )
        result = verify_subadditive_hypotheses(
            phi,
            box,
            samples=_positive_int(cfg, "samples", 200),
            seed=seed,
            exhaustive=exhaustive,
            tolerance=tol,
        )
        props = []
        for name in sorted(result.min_slack):
            props.append(
                {
                    "name": name,
                    "paper_property": SUBADDITIVITY_PROPERTY_LABELS.get(name, name),
                    "checked": result.checked.get(name, 0),
                    "violations": result.violation_count.get(name, 0),
                    "min_slack": result.min_slack[name],
                    "tolerance": tol,
                    "witnesses": _jsonable(result.violations[name]),
                }
            )
        report["exhaustive"] = result.exhaustive
        report["properties"] = props
        report["ok"] = result.ok
        return _finish(
            report, args.out, "verify", EXIT_OK if result.ok else EXIT_VIOLATION
        )
    if suite == "rates":
        tol = args.tol if args.tol is not None else 1e-6
        system = _build_system(_require(cfg, "system"))
        alpha = _build_partition(system, _require(cfg, "alpha"))
        beta = _build_partition(system, _require(cfg, "beta"))
        C = _build_conditioning(system, cfg.get("conditioning"))
        seq, n_max = _build_schedule(_require(cfg, "schedule"), system.d)
        result = verify_rate_inequalities(
            system, alpha, beta, C, seq, n_max, tol, cap=args.cap
        )
        props = [
            {
                "name": c.name,
                "paper_property": RATE_PROPERTY_LABELS.get(c.name, c.name),
                "slack": c.slack,
                "tolerance": c.tol,
                "status": c.status,
            }
            for c in result.checks
        ]
        report["properties"] = props
        report["estimates"] = result.estimates
        report["converged"] = result.converged
        report["ok"] = result.ok
        return _finish(
            report, args.out, "verify", EXIT_OK if result.ok else EXIT_VIOLATION
        )
    raise ConfigError(f"unknown suite: {suite!r}")


def cmd_decompose(cfg: dict, args) -> int:
    system = _build_system(_require(cfg, "system"))
    alpha = _build_partition(system, cfg.get("partition"))
    C = _build_conditioning(system, cfg.get("conditioning"))
    seq, n_max = _build_schedule(_require(cfg, "schedule"), system.d)
    tol = args.tol if args.tol is not None else 1e-3
    beta_cfg = cfg.get("beta")
    beta = None
    if beta_cfg is not None:
        if isinstance(system, FinitePMPAction):
            beta = Partition(system.space, _require(beta_cfg, "blocks"))
            witness = fixed_partition_witness(system, beta)
            if witness is not None:
                report = {
                    "schema": 1,
                    "task": "decompose",
                    "paper_property": "thm31_decomp",
                    "fixed_partition": False,
                    "witness": witness,
                    "ok": False,
                }
                return _finish(report, args.out, "decompose", EXIT_VIOLATION)
        else:
            beta = _require(beta_cfg, "groups")
    result = decompose_entropy(system, beta, alpha, C, seq, n_max, tol, args.cap)
    bits = args.bits
    ok = (not result.lhs_report.converged) or result.gap <= tol
    report = {
        "schema": 1,
        "task": "decompose",
        "paper_property": "thm31_decomp",
        "units": "bits" if bits else "nats",
        "lhs": _scaled(result.lhs, bits),
        "rhs": _scaled(result.rhs, bits),
        "gap": _scaled(result.gap, bits),
        "components": [
            {
                "label": c.label,
                "weight": c.weight,
                "estimate": _scaled(c.estimate, bits),
                "converged": c.converged,
            }
            for c in result.components
        ],
        "certified": result.certified,
        "converged": result.lhs_report.converged,
        "truncated": result.lhs_trace.truncated,
        "ok": ok,
    }
    return _finish(report, args.out, "decompose", EXIT_OK if ok else EXIT_VIOLATION)


def cmd_folner(cfg: dict, args) -> int:
    d = _integer(_require(cfg, "d"), '"d"')
    seq = FolnerSequence(d, tuple(_integer(s, '"sides" entry') for s in _require(cfg, "sides")))
    gens_cfg = cfg.get("generators")
    if gens_cfg is None:
        gens = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    else:
        gens = [tuple(_integer(x, '"generators" coordinate') for x in g) for g in gens_cfg]
    rows = []
    for n in range(1, len(seq) + 1):
        F = seq.subset(n)
        for gi, g in enumerate(gens):
            rows.append((n, len(F), gi, invariance_defect(F, g)))
    _emit(args.out, "folner.csv", _csv_text(["n", "F_size", "generator", "defect"], rows))
    return _finish({"schema": 1, "task": "folner", "rows": len(rows)}, args.out, "folner", EXIT_OK)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folner-entropy",
        description="entropy, rate, and verification jobs from JSON configs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("entropy", "rate", "verify", "decompose", "folner"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--bits", action="store_true", help="serialize entropies in bits")
        p.add_argument("--tol", type=float, default=None, help="verb-level tolerance")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--trials", type=int, default=None, help="override config trials")
        p.add_argument(
            "--max-window",
            type=int,
            default=None,
            help="pattern cap exponent: enumerate at most 2^N patterns",
        )
    return parser


_VERBS = {
    "entropy": cmd_entropy,
    "rate": cmd_rate,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "folner": cmd_folner,
}


def _error_json(kind: str, message: str) -> str:
    return _json_text({"error": {"kind": kind, "message": message}})


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    args.cap = DEFAULT_PATTERN_CAP if args.max_window is None else 1 << args.max_window
    try:
        cfg = _load_config(args.config)
        return _VERBS[args.verb](cfg, args)
    except EnumerationCapError as e:
        sys.stdout.write(_error_json("cap", str(e)))
        return EXIT_CAP
    except (ConfigError, ValueError, TypeError, KeyError) as e:
        sys.stdout.write(_error_json("validation", str(e)))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
