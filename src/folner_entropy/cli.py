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
set functions need not be entropies at all). Every verb accepts every
flag and ignores those it does not read; each flag's help names its verbs.

Every report leaves through ``_finish``, which writes its envelope
(``"schema": 1`` and ``"task"``, the verb's name) around the verb's own
fields, so no verb writes either key.

``verify`` looks its ``"suite"`` up in one table of handlers
(``_SUITES``), each returning (report fields, ok), and finishes in one
place with exit 0 or 3. All wire labels (check name -> paper property)
live in this module, and ``_property`` builds every property row.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import partial
from typing import Optional

import numpy as np

from ._kernels import _MAX_SAFE_PATTERNS
from .decomposition import decompose_entropy
from .engine import (
    RateTrace,
    conditional_block_entropy,
    entropy_rate,
    verify_rate_inequalities,
)
from .groups import (
    FolnerSequence,
    FolnerSubset,
    _integer,
    basis,
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
    SubAlgebraSpec,
    bernoulli_shift,
    markov_shift,
    mixture,
)

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_CAP = 4

# wire-format property identifiers: a verify report's check name -> paper label
IDENTITY_PROPERTY_LABELS = {
    "join_subadditivity": "prop22_1",
    "translation_invariance": "prop22_2",
    "conditioning_monotone": "prop22_3",
    "partition_monotone": "prop22_3",
    "pmp_invariance": "prop22_4",
    "chain_rule": "prop22_5",
    "refining_chain": "prop22_6",
}
DISINTEGRATION_PROPERTY_LABELS = {
    "reconstruction": "def_disintegration",
    "mass_function_integral": "thm5_mfun",
}
EXHAUSTION_PROPERTY_LABELS = {
    "chain_monotone": "thm4_exhaustion",
    "chain_vanishes": "thm4_exhaustion",
}
RATE_PROPERTY_LABELS = {
    "rate_vs_conditional": "thm7_1",
    "join_rate_subadditive": "thm7_2",
    "rate_monotone": "thm7_3",
    "rate_chain_bound": "thm7_4",
}
SUBADDITIVITY_PROPERTY_LABELS = {
    "monotonicity": "thm52_mono",
    "strong_subadditivity": "thm52_ssa",
    "translation_invariance": "thm51_ti",
    "k_cover": "thm51_kcover",
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
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


def _object(value, name: str) -> dict:
    """``value``, read at ``name``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def _field(name: str, obj, key: str):
    """``obj[key]``, ``obj`` being the object read at ``name``."""
    return _require(_object(obj, name), key)


def _positive_int(cfg: dict, key: str, default: int, override: Optional[int] = None) -> int:
    """An integer >= 1 from the command line or the config; only an
    absent value takes the default."""
    value = override if override is not None else cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f'"{key}" must be an integer >= 1, got {value!r}')
    return value


def _build_space(obj: dict) -> FiniteProbabilitySpace:
    atoms = _require(obj, "atoms")
    masses = _require(obj, "masses")
    return FiniteProbabilitySpace(atoms, masses)


def _build_system(obj, name: str = '"system"'):
    kind = _field(name, obj, "kind")
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
        comps = [_build_system(c, '"components" entry') for c in _require(obj, "components")]
        return mixture(comps, _require(obj, "weights"))
    raise ConfigError(f"unknown system kind: {kind!r}")


def _build_partition(system, obj, name: str):
    """The partition spec read at ``name``, as the system's kind reads it
    (``_read_partition``), or None, the system's default, for null."""
    return None if obj is None else system._read_partition(obj, partial(_field, name))


def _build_conditioning(system, obj) -> Optional[SubAlgebraSpec]:
    if obj is None:
        return None
    kind = _field('"conditioning"', obj, "kind")
    if kind == "trivial":
        return SubAlgebraSpec.trivial()
    if kind == "invariant_partition":
        return SubAlgebraSpec.invariant_partition(system._read_invariant(obj, _require))
    if kind == "symbol_factor":
        labels = _require(obj, "labels")
        alphabet = system._factor_alphabet()
        if len(labels) != len(alphabet):
            raise ConfigError("labels must align with the alphabet")
        return SubAlgebraSpec.symbol_factor(
            {sym: _integer(v, '"labels" entry') for sym, v in zip(alphabet, labels)}
        )
    raise ConfigError(f"unknown conditioning kind: {kind!r}")


def _read_system(cfg: dict, window: bool = False) -> tuple:
    """(system, partition, conditioning) of a config, read in that order,
    which fixes the error that a config with several faults reports; with
    ``window``, (system, window, partition, conditioning), the window read
    right after the system."""
    system = _build_system(_require(cfg, "system"))
    read = [system, _build_window(_require(cfg, "window"), system.d)] if window else [system]
    alpha = _build_partition(system, cfg.get("partition"), '"partition"')
    return (*read, alpha, _build_conditioning(system, cfg.get("conditioning")))


def _build_sides(sides, d: int) -> FolnerSequence:
    """The box schedule of a ``"sides"`` list; ``FolnerSequence`` checks
    that its largest box, and so every box, has a size."""
    if not isinstance(sides, list):
        raise ConfigError(f'"sides" must be a list, got {sides!r}')
    return FolnerSequence(d, tuple(_integer(s, '"sides" entry') for s in sides))


def _build_schedule(obj, d: int) -> tuple:
    seq = _build_sides(_field('"schedule"', obj, "sides"), d)
    n_max = obj.get("n_max")
    return seq, (None if n_max is None else _integer(n_max, '"n_max"'))


def _build_window(obj, d: int) -> FolnerSubset:
    if "box" in _object(obj, '"window"'):
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
    """Write ``report`` in its envelope (``"schema": 1``, ``"task"``) to
    ``<stem>.json`` and echo it to stdout; returns ``code``."""
    text = _json_text({"schema": 1, "task": stem, **report})
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
        space = _build_space(_object(cfg["space"], '"space"'))
        alpha = Partition(space, _field('"alpha"', _require(cfg, "alpha"), "blocks"))
        report = {
            "units": units,
            "entropy" + suffix: _scaled(entropy(alpha), bits),
        }
        if cfg.get("beta") is not None:
            beta = Partition(space, _field('"beta"', cfg["beta"], "blocks"))
            report["conditional_entropy" + suffix] = _scaled(
                conditional_entropy(alpha, beta), bits
            )
            dis = disintegrate(space, beta)
            masses = dis.factor.quotient.masses.tolist()
            summary = []
            for bi, fiber in dis.conditional_spaces.items():
                block = beta.blocks[bi]
                summary.append(
                    {
                        "block": list(block),
                        "mass": masses[bi],
                        "fiber_entropy"
                        + suffix: _scaled(entropy(restrict(alpha, block, fiber)), bits),
                    }
                )
            report["disintegration"] = summary
        return _finish(report, args.out, "entropy", EXIT_OK)
    system, window, alpha, C = _read_system(cfg, window=True)
    value = conditional_block_entropy(system, alpha, window, C, None, args.cap)
    report = {
        "units": units,
        "F_size": len(window),
        "block_entropy" + suffix: _scaled(value, bits),
    }
    return _finish(report, args.out, "entropy", EXIT_OK)


def cmd_rate(cfg: dict, args) -> int:
    system, alpha, C = _read_system(cfg)
    seq, n_max = _build_schedule(_require(cfg, "schedule"), system.d)
    tol = args.tol if args.tol is not None else 1e-3
    trace, rep = entropy_rate(system, alpha, C, seq, n_max, tol, args.cap)
    _emit(args.out, "rate.csv", _trace_csv(trace, args.bits))
    bits = args.bits
    report = {
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


def _property(name: str, labels: dict, **fields) -> dict:
    """One row of a verify report's ``"properties"``."""
    return {"name": name, "paper_property": labels.get(name, name), **fields}


def _verify_sweep(
    sweep_fn, default_trials: int, default_tol: float, labels: dict, cfg: dict, args, seed: int
) -> tuple:
    tol = args.tol if args.tol is not None else default_tol
    sweep = sweep_fn(
        _positive_int(cfg, "trials", default_trials, args.trials),
        seed,
        _integer(cfg.get("max_atoms", 10), '"max_atoms"'),
        tolerance=tol,
    )
    props = [
        _property(
            name, labels, checked=s.checked, violations=s.violations, min_slack=s.min_slack, tolerance=s.tolerance
        )
        for name, s in sorted(sweep.stats.items())
    ]
    return {"trials": sweep.trials, "properties": props}, sweep.ok


def _verify_subadditivity(cfg: dict, args, seed: int) -> tuple:
    tol = args.tol if args.tol is not None else 1e-9
    phi_cfg = _object(_require(cfg, "phi"), '"phi"')
    phi_kind = _require(phi_cfg, "kind")
    if phi_kind == "cardinality":
        phi = phi_cardinality
    elif phi_kind == "neg_card_squared":
        phi = phi_neg_card_squared
    elif phi_kind == "window_entropy":
        phi = window_entropy_phi(*_read_system(phi_cfg), cap=args.cap)
    else:
        raise ConfigError(f"unknown phi kind: {phi_kind!r}")
    exhaustive = cfg.get("exhaustive")
    if "exhaustive" in cfg and not isinstance(exhaustive, bool):
        raise ConfigError(f'"exhaustive" must be true or false, got {exhaustive!r}')
    box_cfg = _object(_require(cfg, "box"), '"box"')
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
    # witnesses hold only tuples and Python ints, which json writes as arrays
    props = [
        _property(
            name,
            SUBADDITIVITY_PROPERTY_LABELS,
            checked=result.checked.get(name, 0),
            violations=result.violation_count.get(name, 0),
            min_slack=result.min_slack[name],
            tolerance=tol,
            witnesses=result.violations[name],
        )
        for name in sorted(result.min_slack)
    ]
    return {"exhaustive": result.exhaustive, "properties": props}, result.ok


def _verify_rates(cfg: dict, args, seed: int) -> tuple:
    tol = args.tol if args.tol is not None else 1e-6
    system = _build_system(_require(cfg, "system"))
    alpha = _build_partition(system, _require(cfg, "alpha"), '"alpha"')
    beta = _build_partition(system, _require(cfg, "beta"), '"beta"')
    C = _build_conditioning(system, cfg.get("conditioning"))
    seq, n_max = _build_schedule(_require(cfg, "schedule"), system.d)
    result = verify_rate_inequalities(system, alpha, beta, C, seq, n_max, tol, cap=args.cap)
    props = [
        _property(c.name, RATE_PROPERTY_LABELS, slack=c.slack, tolerance=c.tol, status=c.status)
        for c in result.checks
    ]
    return {"properties": props, "estimates": result.estimates, "converged": result.converged}, result.ok


# verify suite -> handler(cfg, args, seed) returning (report fields, ok)
_SUITES = {
    "identities": partial(_verify_sweep, sweep_identities, 500, 1e-9, IDENTITY_PROPERTY_LABELS),
    "disintegration": partial(
        _verify_sweep, sweep_disintegration, 1000, 1e-12, DISINTEGRATION_PROPERTY_LABELS
    ),
    "exhaustion": partial(_verify_sweep, sweep_exhaustion, 200, 1e-12, EXHAUSTION_PROPERTY_LABELS),
    "subadditivity": _verify_subadditivity,
    "rates": _verify_rates,
}


def cmd_verify(cfg: dict, args) -> int:
    suite = _require(cfg, "suite")
    seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0), '"seed"')
    # an unhashable suite, such as a list, is unknown too
    handler = _SUITES.get(suite) if isinstance(suite, str) else None
    if handler is None:
        raise ConfigError(f"unknown suite: {suite!r}")
    fields, ok = handler(cfg, args, seed)
    report = {"suite": suite, "seed": seed, **fields, "ok": ok}
    return _finish(report, args.out, "verify", EXIT_OK if ok else EXIT_VIOLATION)


def cmd_decompose(cfg: dict, args) -> int:
    system, alpha, C = _read_system(cfg)
    seq, n_max = _build_schedule(_require(cfg, "schedule"), system.d)
    tol = args.tol if args.tol is not None else 1e-3
    beta_cfg = cfg.get("beta")
    beta, witness = (None, None) if beta_cfg is None else system._read_beta(beta_cfg, partial(_field, '"beta"'))
    if witness is not None:
        report = {"paper_property": "thm31_decomp", "fixed_partition": False, "witness": witness, "ok": False}
        return _finish(report, args.out, "decompose", EXIT_VIOLATION)
    result = decompose_entropy(system, beta, alpha, C, seq, n_max, tol, args.cap)
    bits = args.bits
    ok = (not result.lhs_report.converged) or result.gap <= tol
    report = {
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
    seq = _build_sides(_require(cfg, "sides"), d)
    gens_cfg = cfg.get("generators")
    if gens_cfg is None:
        gens = basis(d)
    else:
        gens = [tuple(_integer(x, '"generators" coordinate') for x in g) for g in gens_cfg]
    rows = []
    for n in range(1, len(seq) + 1):
        F = seq.subset(n)
        for gi, g in enumerate(gens):
            rows.append((n, len(F), gi, invariance_defect(F, g)))
    _emit(args.out, "folner.csv", _csv_text(["n", "F_size", "generator", "defect"], rows))
    return _finish({"rows": len(rows)}, args.out, "folner", EXIT_OK)


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
        p.add_argument("--config", required=True, help="JSON experiment config (every verb)")
        p.add_argument("--out", default=".", help="output directory (every verb)")
        p.add_argument(
            "--bits", action="store_true", help="serialize entropies in bits (entropy, rate, decompose)"
        )
        p.add_argument(
            "--tol", type=float, default=None, help="verb-level tolerance (rate, verify, decompose)"
        )
        p.add_argument("--seed", type=int, default=None, help="override config seed (verify only)")
        p.add_argument(
            "--trials",
            type=int,
            default=None,
            help="override config trials (verify only: identities, disintegration, exhaustion)",
        )
        p.add_argument(
            "--max-window",
            type=int,
            default=None,
            help="pattern cap exponent: at most 2^N symbol patterns per Markov "
            "window, counted but not enumerated (entropy, rate, verify, decompose)",
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


# the largest --max-window whose 2^N patterns the kernels can still index
_MAX_WINDOW = _MAX_SAFE_PATTERNS.bit_length() - 1


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_tol(argv: list) -> list:
    """Rewrite ``--tol -1e-3`` as ``--tol=-1e-3``.

    argparse reads a dash-led token as an option unless it matches its
    negative-number pattern, which misses the exponent form and ``-inf``;
    attached, the value reaches validation like every other bad value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--tol" and token.startswith("-") and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_tol(list(argv)))
    try:
        if args.max_window is not None and not 0 <= args.max_window <= _MAX_WINDOW:
            raise ConfigError(f"--max-window must be in 0..{_MAX_WINDOW}, got {args.max_window}")
        args.cap = DEFAULT_PATTERN_CAP if args.max_window is None else 1 << args.max_window
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ConfigError(f"--tol must be a finite number >= 0, got {args.tol!r}")
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
