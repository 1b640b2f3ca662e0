"""The benchmark's four workloads and the checks on every op.

Each workload is a fixed, ordered mix of ops. One op is one call a user
makes: a rate trace, a block entropy, a verifier, a sweep batch or one
CLI job. The seed draws only values (transition matrices, site
distributions, arc cut points, sweep seeds); every shape (alphabet
sizes, schedules, space sizes, window sizes) is fixed, so the work per
op is the same for every seed.

An op's ``check`` returns a list of problems ``(severity, message)``:

- ``"value"``: a wrong value, an unexpected exception, a wrong exit
  code or output bytes that differ between repeats;
- ``"flag"``: a report that says ``converged=True`` while its estimate
  is more than ``tol`` from a rate known in closed form.

Both kinds make the op count as failed. Only ``"value"`` problems make
the run incorrect (see README.md).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import clock
import folner_entropy as fe
import refs

VALUE_TOL = 1e-9


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    name: str
    ops: list
    # peak RSS is read from the waited-for children (cli-jobs) or from self
    rss_from_children: bool = False
    layer_metrics: Optional[Callable[[list], dict]] = None
    cleanup: Optional[Callable[[], None]] = None


def _close(got: float, want: float, tol: float = VALUE_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _value(msg: str) -> tuple:
    return ("value", msg)


def check_trace(trace, report, ref_rows, truncated: bool, true_rate=None) -> list:
    """Rows against references, the expected truncation, and the
    ``converged`` claim against a closed-form rate when one is known."""
    problems = []
    if len(trace) != len(ref_rows) or trace.truncated != truncated:
        problems.append(
            _value(f"{len(trace)} rows, truncated={trace.truncated}; "
                   f"expected {len(ref_rows)} rows, truncated={truncated}")
        )
    for e, want in zip(trace.entries, ref_rows):
        if not _close(e.block_entropy, want):
            problems.append(_value(f"row n={e.n}: H={e.block_entropy!r}, reference {want!r}"))
            break
    if true_rate is not None and report.converged:
        err = abs(report.estimate - true_rate)
        if err > report.tol:
            problems.append(
                ("flag", f"converged=True but |estimate - h| = {err:.4g} > tol {report.tol:g}")
            )
    return problems


def _rows_monotone(trace, one_site: float) -> list:
    """H(alpha^{[0,n)}) non-decreasing in n and every rate <= one-site value."""
    H = [e.block_entropy for e in trace.entries]
    if any(b < a - 1e-12 for a, b in zip(H, H[1:])):
        return [_value("block entropies decrease along the schedule")]
    if any(e.rate > one_site + 1e-12 for e in trace.entries):
        return [_value("a rate exceeds the one-site entropy")]
    return []


# ---------------------------------------------------------------------------
# seeded inputs shared by workloads and reach ladders
# ---------------------------------------------------------------------------


def seeded(seed: int, stream: int) -> np.random.Generator:
    """The generator of one input stream of a run; any integer seed works."""
    return np.random.default_rng([seed & 0xFFFFFFFF, stream])


def two_state_chain(rng) -> np.ndarray:
    """A 2-state transition matrix near the acceptance suite's chain."""
    a = rng.uniform(0.08, 0.12)
    b = rng.uniform(0.16, 0.24)
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


def three_state_chain(rng) -> np.ndarray:
    """A 3-state transition matrix with every entry at least 0.1."""
    return 0.1 + 0.7 * rng.dirichlet(np.ones(3), size=3)


def site_distribution(rng, m: int) -> np.ndarray:
    """A site distribution on m symbols with every mass at least 0.2 / m."""
    return 0.2 / m + 0.8 * rng.dirichlet(np.ones(m))


def arc_cuts(rng, N: int, n_arcs: int, min_gap: int) -> np.ndarray:
    """Sorted cut points of n_arcs arcs on Z/N, each at least min_gap long."""
    gaps = min_gap + rng.multinomial(N - n_arcs * min_gap, np.full(n_arcs, 1.0 / n_arcs))
    starts = (int(rng.integers(N)) + np.concatenate([[0], np.cumsum(gaps)[:-1]])) % N
    return np.sort(starts)


def rotation(N: int, step: int = 1) -> "fe.FinitePMPAction":
    space = fe.FiniteProbabilitySpace.uniform(N)
    return fe.FinitePMPAction(space, [tuple((j + step) % N for j in range(N))])


def arc_partition(system, cuts) -> "fe.Partition":
    N = len(system.space)
    return fe.Partition.from_labels(system.space, refs.arc_labels(N, cuts))


# ---------------------------------------------------------------------------
# shift-rates
# ---------------------------------------------------------------------------


def shift_rates(seed: int, out_dir: Path) -> Workload:
    rng = seeded(seed, 1)
    P2 = two_state_chain(rng)
    P3 = three_state_chain(rng)
    p_bern = site_distribution(rng, 2)
    w = rng.uniform(0.3, 0.7)
    p_2d = site_distribution(rng, 3)

    mk2 = fe.markov_shift(None, P2)
    mk3 = fe.markov_shift(None, P3)
    coarse = fe.SymbolPartition(mk3.alphabet, [[0], [1, 2]])
    factor = fe.SubAlgebraSpec.symbol_factor({0: 0, 1: 1, 2: 1})
    mix = fe.mixture([fe.bernoulli_shift(p_bern), mk2], [w, 1.0 - w])
    bern2d = fe.bernoulli_shift(p_2d, d=2)

    seq24 = fe.FolnerSequence(1, tuple(range(1, 25)))
    seq13 = fe.FolnerSequence(1, tuple(range(1, 14)))
    seq11 = fe.FolnerSequence(1, tuple(range(1, 12)))
    seq2d = fe.FolnerSequence(2, (1, 2, 3, 4, 8, 16, 32, 64, 128))

    pi2, pi3 = refs.stationary(P2), refs.stationary(P3)
    h2 = refs.markov_rate(pi2, P2)
    # 2^20 patterns is the cap, so the 1-d traces stop after n = 20
    markov_rows = [refs.markov_interval_entropy(pi2, P2, n) for n in range(1, 21)]
    hidden = refs.hidden_markov_block_entropies(pi3, P3, [0, 1, 1], 12)
    # 3^13 symbol words exceed the cap, so the coarse trace stops at 12
    coarse_rows = hidden[:12]
    factor_rows = [
        refs.markov_interval_entropy(pi3, P3, n) - hidden[n - 1] for n in range(1, 12)
    ]
    H_x0_given_y0 = refs.shannon(pi3) - hidden[0]
    H_bern = refs.shannon(p_bern)
    mix_rows = [
        refs.shannon([w, 1.0 - w]) + w * n * H_bern + (1.0 - w) * markov_rows[n - 1]
        for n in range(1, 21)
    ]
    mix_rate = w * H_bern + (1.0 - w) * h2
    H_2d = refs.shannon(p_2d)
    rows_2d = [s * s * H_2d for s in seq2d.sides]

    def coarse_check(res):
        trace, rep = res
        return check_trace(trace, rep, coarse_rows, True) + _rows_monotone(trace, hidden[0])

    def factor_check(res):
        trace, rep = res
        problems = check_trace(trace, rep, factor_rows, False)
        if any(e.rate > H_x0_given_y0 + 1e-12 for e in trace.entries):
            problems.append(_value("a conditional rate exceeds H(X_0 | Y_0)"))
        return problems

    ops = [
        Op("markov2-trace",
           lambda: fe.entropy_rate(mk2, sequence=seq24),
           lambda r: check_trace(r[0], r[1], markov_rows, True, h2)),
        Op("hidden-coarse-trace",
           lambda: fe.entropy_rate(mk3, coarse, sequence=seq13),
           coarse_check),
        Op("hidden-factor-trace",
           lambda: fe.entropy_rate(mk3, None, factor, sequence=seq11),
           factor_check),
        Op("mixture-trace",
           lambda: fe.entropy_rate(mix, sequence=seq24),
           lambda r: check_trace(r[0], r[1], mix_rows, True, mix_rate)),
        Op("bernoulli2d-trace",
           lambda: fe.entropy_rate(bern2d, sequence=seq2d),
           lambda r: check_trace(r[0], r[1], rows_2d, False, H_2d)),
    ]
    return Workload("shift-rates", ops)


# ---------------------------------------------------------------------------
# finite-joins
# ---------------------------------------------------------------------------


def finite_joins(seed: int, out_dir: Path) -> Workload:
    rng = seeded(seed, 2)
    ops = []
    # N = 8000 with |F| = 64 is a rung of the reach_atoms ladder, measured every run
    for N, windows in ((2000, (4, 16, 64)), (8000, (16,))):
        rot = rotation(N)
        cuts = arc_cuts(rng, N, 8, 64)
        alpha = arc_partition(rot, cuts)
        for k in windows:
            F = fe.FolnerSubset.interval(0, k)
            want = refs.arc_join_entropy(N, cuts, k)
            ops.append(Op(
                f"rotation{N}-k{k}",
                lambda rot=rot, alpha=alpha, F=F: fe.conditional_block_entropy(rot, alpha, F),
                lambda H, want=want: [] if _close(H, want) else [_value(f"H={H!r}, reference {want!r}")],
            ))

    # Z/40 x Z/50 torus, quadrant partition: the box join is a product
    nx, ny = 40, 50
    a, b = int(rng.integers(6, nx - 5)), int(rng.integers(6, ny - 5))
    tspace = fe.FiniteProbabilitySpace.uniform(nx * ny)
    gx = tuple(((j // ny + 1) % nx) * ny + j % ny for j in range(nx * ny))
    gy = tuple((j // ny) * ny + (j % ny + 1) % ny for j in range(nx * ny))
    torus = fe.FinitePMPAction(tspace, [gx, gy])
    quad = fe.Partition.from_labels(
        tspace, [2 * (j // ny >= a) + (j % ny >= b) for j in range(nx * ny)]
    )
    seq_t = fe.FolnerSequence(2, (1, 2, 3, 4, 5, 6))
    torus_rows = [
        refs.arc_join_entropy(nx, np.array([0, a]), s) + refs.arc_join_entropy(ny, np.array([0, b]), s)
        for s in seq_t.sides
    ]

    def finite_report(rep) -> list:
        if rep.estimate != 0.0 or rep.method != "bounded-numerator":
            return [_value(f"finite system reported {rep.estimate!r} by {rep.method}")]
        return []

    ops.append(Op(
        "torus-trace",
        lambda: fe.entropy_rate(torus, quad, sequence=seq_t),
        lambda r: check_trace(r[0], r[1], torus_rows, False) + finite_report(r[1]),
    ))

    # rotation by 2 on Z/2000: two orbits (even and odd points)
    N2 = 2000
    rot2 = rotation(N2, 2)
    cuts2 = arc_cuts(rng, N2, 8, 128)
    labels2 = refs.arc_labels(N2, cuts2)
    alpha2 = fe.Partition.from_labels(rot2.space, labels2)
    parity = np.arange(N2) % 2
    orbits = fe.SubAlgebraSpec.invariant_partition(fe.Partition.from_labels(rot2.space, parity))
    F64 = fe.FolnerSubset.interval(0, 64)
    orbit_want = refs.itinerary_entropy(labels2, 2, 64, given=parity)
    ops.append(Op(
        "orbit-conditioned-k64",
        lambda: fe.conditional_block_entropy(rot2, alpha2, F64, orbits),
        lambda H: [] if _close(H, orbit_want) else [_value(f"H={H!r}, reference {orbit_want!r}")],
    ))

    seq_d = fe.FolnerSequence(1, (1, 2, 4, 8, 16, 32))
    decomp_rows = [refs.itinerary_entropy(labels2, 2, s) for s in seq_d.sides]

    def decomp_check(res) -> list:
        problems = check_trace(res.lhs_trace, res.lhs_report, decomp_rows, False)
        problems += finite_report(res.lhs_report)
        if res.lhs != 0.0 or res.rhs != 0.0 or res.gap != 0.0 or not res.certified:
            problems.append(_value(f"lhs={res.lhs!r} rhs={res.rhs!r} certified={res.certified}"))
        if len(res.components) != 2 or not all(_close(c.weight, 0.5, 1e-12) for c in res.components):
            problems.append(_value("expected two orbit components of weight 1/2"))
        return problems

    ops.append(Op(
        "orbit-decomposition",
        lambda: fe.decompose_entropy(rot2, None, alpha2, None, seq_d),
        decomp_check,
    ))
    # The two |F| = 64 rotation windows run twice per pass, so the median
    # op falls among them rather than on the torus trace, whose times
    # spread most from run to run on a busy host.
    heavy = [op for op in ops if op.kind in ("rotation2000-k64", "orbit-conditioned-k64")]
    return Workload("finite-joins", ops + heavy)


# ---------------------------------------------------------------------------
# verify-sweeps
# ---------------------------------------------------------------------------


def _ok_report(rep) -> list:
    return [] if rep.ok else [_value(f"{type(rep).__name__} not ok")]


def verify_sweeps(seed: int, out_dir: Path) -> Workload:
    rng = seeded(seed, 3)
    mk2 = fe.markov_shift(None, two_state_chain(rng))
    mk3 = fe.markov_shift(None, three_state_chain(rng))
    cells_a = fe.SymbolPartition(mk3.alphabet, [[0], [1, 2]])
    cells_b = fe.SymbolPartition(mk3.alphabet, [[0, 1], [2]])
    seq11 = fe.FolnerSequence(1, tuple(range(1, 12)))
    box8 = fe.FolnerSubset.box(1, 8)
    # distinct sweep seeds per batch, drawn from the run seed
    batch_seeds = itertools.count(int(rng.integers(1 << 30)))

    def sweep_check(trials):
        def check(rep):
            problems = _ok_report(rep)
            if rep.trials != trials or not rep.stats:
                problems.append(_value("sweep report is incomplete"))
            return problems
        return check

    def subadditivity():
        # the set function is built per op, as a caller would
        return fe.verify_subadditive_hypotheses(fe.window_entropy_phi(mk2), box8, exhaustive=True)

    def subadditivity_check(rep):
        problems = _ok_report(rep)
        if not rep.exhaustive or rep.checked.get("strong_subadditivity") != 4**8:
            problems.append(_value("exhaustive pair checks incomplete"))
        return problems

    ops = [
        Op("sweep-identities-500",
           lambda: fe.sweep_identities(500, next(batch_seeds)), sweep_check(500)),
        Op("sweep-disintegration-1000",
           lambda: fe.sweep_disintegration(1000, next(batch_seeds)), sweep_check(1000)),
        Op("sweep-exhaustion-200",
           lambda: fe.sweep_exhaustion(200, next(batch_seeds)), sweep_check(200)),
        Op("subadditivity-box8", subadditivity, subadditivity_check),
        Op("rate-inequalities-hidden",
           lambda: fe.verify_rate_inequalities(mk3, cells_a, cells_b, sequence=seq11),
           _ok_report),
    ]
    return Workload("verify-sweeps", ops)


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------


def _cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _job_time(cmd: list, env: dict, cwd: Path) -> float:
    """Time of one subprocess at reference speed (see clock.py)."""
    before = clock.probe()
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=120)
    return clock.scaled(time.perf_counter() - t0, before, clock.probe())


@dataclass
class CliJob:
    name: str
    verb: str
    config: dict
    exit_code: int
    files: tuple
    expect: Callable[[dict], list]
    flags: tuple = ()


def cli_jobs(seed: int, out_dir: Path) -> Workload:
    rng = seeded(seed, 4)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    work = out_dir / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _cli_env(src)

    # finite space with beta
    masses = rng.dirichlet(np.ones(8))
    masses = (masses / masses.sum()).tolist()
    blocks_a = [[0, 3], [1, 4, 6], [2], [5, 7]]
    blocks_b = [[0, 1, 2, 3], [4, 5, 6, 7]]
    space = fe.FiniteProbabilitySpace(range(8), masses)
    alpha, beta = fe.Partition(space, blocks_a), fe.Partition(space, blocks_b)
    lib_H, lib_HC = fe.entropy(alpha), fe.conditional_entropy(alpha, beta)
    ref_H = refs.shannon([sum(masses[i] for i in blk) for blk in blocks_a])

    def expect_space(rep):
        problems = []
        if rep.get("entropy_nats") != lib_H or rep.get("conditional_entropy_nats") != lib_HC:
            problems.append(_value("entropy values differ from the library call"))
        if not _close(rep.get("entropy_nats", 0.0), ref_H):
            problems.append(_value("entropy differs from the block-mass reference"))
        if len(rep.get("disintegration", [])) != 2:
            problems.append(_value("disintegration summary incomplete"))
        return problems

    # Markov chain on a gapped 10-site window; oracle: cylinder enumeration
    P2 = two_state_chain(rng)
    pi2 = refs.stationary(P2)
    mk2 = fe.markov_shift(pi2, P2, stationarity_tol=1e-10)
    window = [0, 1, 2, 4, 5, 7, 8, 9, 11, 12]
    W = fe.FolnerSubset([(t,) for t in window], 1)
    lib_window = fe.conditional_block_entropy(mk2, None, W)
    cyl = [
        fe.cylinder_measure(mk2, W, {(t,): s for t, s in zip(window, word)})
        for word in itertools.product(range(2), repeat=len(window))
    ]
    cyl_H = refs.shannon(cyl)
    markov_cfg = {"kind": "markov", "pi": pi2.tolist(), "P": P2.tolist()}

    def expect_window(rep):
        H = rep.get("block_entropy_nats")
        if H != lib_window or not _close(H, cyl_H):
            return [_value(f"window entropy {H!r}: library {lib_window!r}, cylinders {cyl_H!r}")]
        return []

    # rate over 10 boxes of the chain
    seq10 = fe.FolnerSequence(1, tuple(range(1, 11)))
    lib_tr, lib_rep = fe.entropy_rate(mk2, sequence=seq10)
    h2 = refs.markov_rate(pi2, P2)

    def expect_rate(lib_rep, true_rate):
        def expect(rep):
            problems = []
            if (rep.get("estimate"), rep.get("n_used"), rep.get("converged"), rep.get("truncated")) != (
                lib_rep.estimate, lib_rep.n_used, lib_rep.converged, lib_rep.truncated
            ):
                problems.append(_value("rate report differs from the library call"))
            if rep.get("converged") and abs(rep["estimate"] - true_rate) > rep["tol"]:
                problems.append(("flag", "converged=True but the estimate is off by more than tol"))
            return problems
        return expect

    # Bernoulli d = 2
    p3 = site_distribution(rng, 3)
    b2 = fe.bernoulli_shift(p3, d=2)
    seq2d = fe.FolnerSequence(2, (1, 2, 3, 4))
    _, lib_rep2d = fe.entropy_rate(b2, sequence=seq2d)

    # identities sweep
    sweep_seed = int(rng.integers(1 << 30))
    lib_sweep = fe.sweep_identities(100, sweep_seed)
    lib_checked = {n: s.checked for n, s in lib_sweep.stats.items()}

    def expect_identities(rep):
        got = {p["name"]: p["checked"] for p in rep.get("properties", [])}
        if rep.get("ok") is not True or rep.get("trials") != 100 or got != lib_checked:
            return [_value("identities report differs from the library sweep")]
        return []

    def expect_ok(rep):
        return [] if rep.get("ok") is True else [_value("report not ok")]

    # decomposition of a two-Bernoulli mixture
    q1, q2 = rng.uniform(0.1, 0.45, size=2)
    wm = rng.uniform(0.3, 0.7)
    mixture_cfg = {
        "kind": "mixture",
        "components": [
            {"kind": "bernoulli", "probs": [q1, 1.0 - q1]},
            {"kind": "bernoulli", "probs": [q2, 1.0 - q2]},
        ],
        "weights": [wm, 1.0 - wm],
    }
    mix = fe.mixture([fe.bernoulli_shift([q1, 1.0 - q1]), fe.bernoulli_shift([q2, 1.0 - q2])], [wm, 1.0 - wm])
    sides_d = (1, 2, 4, 8, 16, 32, 64)
    lib_dec = fe.decompose_entropy(mix, sequence=fe.FolnerSequence(1, sides_d))
    dec_ok = (not lib_dec.lhs_report.converged) or lib_dec.gap <= 1e-3

    def expect_decompose(rep):
        if (rep.get("lhs"), rep.get("rhs"), rep.get("ok")) != (lib_dec.lhs, lib_dec.rhs, dec_ok):
            return [_value("decomposition report differs from the library call")]
        return []

    # a truncated schedule (exit 4) and an invalid config (exit 2)
    def expect_truncated(rep):
        if rep.get("truncated") is not True or rep.get("n_used") != 2:
            return [_value("expected a schedule truncated after 2 boxes")]
        return []

    def expect_invalid(rep):
        if rep.get("error", {}).get("kind") != "validation":
            return [_value("expected a validation error")]
        return []

    jobs = [
        CliJob("entropy-space", "entropy",
               {"schema": 1, "space": {"atoms": list(range(8)), "masses": masses},
                "alpha": {"blocks": blocks_a}, "beta": {"blocks": blocks_b}},
               0, ("entropy.json",), expect_space),
        CliJob("entropy-markov-window", "entropy",
               {"schema": 1, "system": markov_cfg, "window": {"elements": [[t] for t in window]}},
               0, ("entropy.json",), expect_window),
        CliJob("rate-markov-10", "rate",
               {"schema": 1, "system": markov_cfg, "schedule": {"sides": list(seq10.sides)}},
               0, ("rate.csv", "rate.json"), expect_rate(lib_rep, h2)),
        CliJob("rate-bernoulli2d", "rate",
               {"schema": 1, "system": {"kind": "bernoulli", "probs": p3.tolist(), "d": 2},
                "schedule": {"sides": list(seq2d.sides)}},
               0, ("rate.csv", "rate.json"), expect_rate(lib_rep2d, refs.shannon(p3))),
        CliJob("verify-identities", "verify",
               {"schema": 1, "suite": "identities", "trials": 100, "seed": sweep_seed},
               0, ("verify.json",), expect_identities),
        CliJob("verify-subadditivity", "verify",
               {"schema": 1, "suite": "subadditivity", "phi": {"kind": "cardinality"},
                "box": {"d": 1, "side": 6}},
               0, ("verify.json",), expect_ok),
        CliJob("decompose-mixture", "decompose",
               {"schema": 1, "system": mixture_cfg, "schedule": {"sides": list(sides_d)}},
               0 if dec_ok else 3, ("decompose.json",), expect_decompose),
        CliJob("folner", "folner",
               {"schema": 1, "d": 2, "sides": [1, 2, 4, 8, 16]},
               0, ("folner.csv", "folner.json"),
               lambda rep: [] if rep.get("rows") == 10 else [_value("expected 10 folner rows")]),
        CliJob("rate-cap-exit4", "rate",
               {"schema": 1, "system": markov_cfg, "schedule": {"sides": [2, 4, 16]}},
               4, ("rate.csv", "rate.json"), expect_truncated, ("--max-window", "8")),
        CliJob("invalid-exit2", "rate",
               {"schema": 1, "system": {"kind": "bernoulli", "probs": [0.5, 0.6]},
                "schedule": {"sides": [1, 2]}},
               2, (), expect_invalid),
    ]

    first_outputs: dict = {}
    ops = []
    for job in jobs:
        job_dir = work / job.name
        out = job_dir / "out"
        out.mkdir(parents=True)
        cfg_path = job_dir / "config.json"
        cfg_path.write_text(json.dumps(job.config))
        cmd = [sys.executable, "-m", "folner_entropy.cli", job.verb,
               "--config", str(cfg_path), "--out", str(out), *job.flags]

        def prepare(out=out):
            for f in out.iterdir():
                f.unlink()

        def run(cmd=cmd):
            return subprocess.run(cmd, env=env, cwd=root, capture_output=True, timeout=120)

        def check(proc, job=job, out=out):
            problems = []
            if proc.returncode != job.exit_code:
                problems.append(_value(f"exit {proc.returncode}, expected {job.exit_code}"))
            written = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            if tuple(sorted(written)) != tuple(sorted(job.files)):
                problems.append(_value(f"wrote {sorted(written)}, expected {sorted(job.files)}"))
            outputs = dict(written, stdout=proc.stdout)
            seen = first_outputs.setdefault(job.name, outputs)
            if seen != outputs:
                problems.append(_value("outputs differ from the first run of this job"))
            try:
                problems += job.expect(json.loads(proc.stdout))
            except json.JSONDecodeError:
                problems.append(_value("stdout is not a JSON report"))
            return problems

        ops.append(Op(job.name, run, check, prepare))

    def layer_metrics(latencies: list) -> dict:
        """Interpreter start, package import and verb time, from outside.

        ``latencies`` are the wall times of the traced loop's jobs.
        """
        py = sys.executable
        interp = [_job_time([py, "-c", "pass"], env, root) for _ in range(5)]
        imp = [_job_time([py, "-c", "import folner_entropy.cli"], env, root) for _ in range(5)]
        written = [v for outs in first_outputs.values() for k, v in outs.items() if k != "stdout"]
        return {
            "cli.interp_s": (statistics.median(interp), "s"),
            "cli.import_s": (statistics.median(imp) - statistics.median(interp), "s"),
            "cli.verb_s": (statistics.median(latencies) - statistics.median(imp), "s"),
            "cli.bytes_written": (float(sum(len(v) for v in written)), "B/pass"),
            "cli.files_written": (float(len(written)), "count/pass"),
        }

    return Workload(
        "cli-jobs", ops, rss_from_children=True, layer_metrics=layer_metrics,
        cleanup=lambda: shutil.rmtree(work, ignore_errors=True),
    )


BUILDERS = {
    "shift-rates": shift_rates,
    "finite-joins": finite_joins,
    "verify-sweeps": verify_sweeps,
    "cli-jobs": cli_jobs,
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return BUILDERS[name](seed, out_dir)
