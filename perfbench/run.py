"""End-to-end benchmark of folner-entropy.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shift-rates --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload, one table
    python3 perfbench/run.py --smoke                         # every workload, a few seconds

One process runs one workload: a closed loop with one client, no
threads, ops run one after another (CLI jobs as one subprocess at a
time). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it give the same numbers as a table,
the environment, and every failed check. See README.md.
"""

import time

T_START = time.perf_counter()  # set-up starts here, before numpy and folner_entropy load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("shift-rates", "finite-joins", "verify-sweeps", "cli-jobs")
# fresh-process set-ups per run besides the run's own; setup_s is their median
EXTRA_SETUPS = 2
TAIL_BEYOND = 10
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("reach_interval_sites", "sites"),
    ("reach_box_sites", "sites"),
    ("reach_atoms", "atoms"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload once, with checks")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class Sample:
    """One op: its wall time, its time at reference speed, its problems."""

    __slots__ = ("kind", "seconds", "scaled", "problems")

    def __init__(self, kind, seconds, problems):
        self.kind, self.seconds, self.problems = kind, seconds, problems
        self.scaled = seconds


def run_op(op, op_id=0, tracer=None) -> Sample:
    if op.prepare is not None:
        op.prepare()
    t0 = time.perf_counter()
    try:
        result = tracer.run_op(op.kind, op_id, op.run) if tracer else op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Sample(op.kind, time.perf_counter() - t0,
                      [("value", f"raised {type(exc).__name__}: {exc}")])
    elapsed = time.perf_counter() - t0
    try:
        problems = op.check(result)
    except Exception as exc:
        problems = [("value", f"check raised {type(exc).__name__}: {exc}")]
    return Sample(op.kind, elapsed, problems)


def timed_loop(wl, seconds, tracer=None):
    """Whole passes of the op mix until ``seconds`` of op time have gone by.

    A speed probe runs between ops, outside their timed intervals, and
    scales each op to reference speed (clock.py). The loop counts op
    time at reference speed too, so a run of the same code makes the
    same number of passes however busy the host is; it stops early only
    if wall time exceeds three times ``seconds``. Returns (samples, passes).
    """
    samples = []
    passes = 0
    op_time = 0.0
    before = clock.probe()
    t_give_up = time.perf_counter() + 3 * seconds
    while True:
        for op in wl.ops:
            sample = run_op(op, len(samples), tracer)
            after = clock.probe()
            sample.scaled = clock.scaled(sample.seconds, before, after)
            samples.append(sample)
            op_time += sample.scaled
            before = after
        passes += 1
        if op_time >= seconds or time.perf_counter() >= t_give_up:
            return samples, passes


def latency_metrics(times):
    """ops_per_s, op_p50_ms and op_tail_ms of a list of op times in seconds."""
    lat = sorted(times)
    n = len(lat)
    # the value with TAIL_BEYOND samples above it; the maximum in runs too short for one
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * lat[k], "ms"),
    }, f"p{100.0 * (k + 1) / n:.1f} of {n} samples ({TAIL_BEYOND} beyond it)"


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.rss_from_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def child_setup(args) -> tuple:
    """(scaled, wall) set-up time of a fresh process for the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_wall_s"]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    import folner_entropy as fe

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "HAS_NUMBA": bool(fe.HAS_NUMBA),
        "FOLNER_ENTROPY_DISABLE_NUMBA": os.environ.get("FOLNER_ENTROPY_DISABLE_NUMBA"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def summarize_problems(samples, extra=()):
    counts = Counter((kind, sev, msg) for kind, sev, msg in extra)
    for s in samples:
        for sev, msg in s.problems:
            counts[(s.kind, sev, msg)] += 1
    return [f"  {n} x {kind} [{sev}]: {msg}" for (kind, sev, msg), n in sorted(counts.items())]


def emit(workload, metrics, samples, setup_problems, env, notes):
    """Print the table, environment and failures, then the result line."""
    failed = sum(1 for s in samples if s.problems)
    correct = not any(sev == "value" for _, sev, _ in setup_problems) and not any(
        sev == "value" for s in samples for sev, _ in s.problems
    )
    print(f"workload {workload}: {len(samples)} ops, {failed} failed"
          f" (fail_frac {failed / max(1, len(samples)):.4f}), correct={correct}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    lines = summarize_problems(samples, setup_problems)
    if lines:
        print("failed checks:")
        print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def warm_up(wl):
    """One checked pass; its problems count against correctness."""
    problems = []
    for op in wl.ops:
        problems += [(f"{op.kind} (warm-up)", sev, msg) for sev, msg in run_op(op).problems]
    return problems


def untraced(args, wl, setup, setup_problems):
    import reach

    samples, passes = timed_loop(wl, args.seconds)
    values, tail = latency_metrics([s.scaled for s in samples])
    wall, _ = latency_metrics([s.seconds for s in samples])
    values["peak_rss_mb"] = (peak_rss_mb(wl), "MB")  # before reach ladders and set-up children
    reach_metrics, reach_problems = reach.measure(args.seed)
    values.update(reach_metrics)
    setups = [setup] + [child_setup(args) for _ in range(EXTRA_SETUPS)]
    values["setup_s"] = (statistics.median(s for s, _ in setups), "s")
    metrics = {name: values[name] for name, _ in END_TO_END}
    by_kind = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.scaled)
    notes = [
        f"{passes} passes of {len(wl.ops)} ops, {args.seconds:g} s of op time",
        "times are at reference speed (clock.py); wall-clock: "
        + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in wall.items())
        + ", setup_s " + ", ".join(f"{w:.3f}" for _, w in setups),
        "median ms per op kind: " + ", ".join(
            f"{k} {1e3 * statistics.median(v):.1f}" for k, v in by_kind.items()),
        f"op_tail_ms is {tail}",
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s, _ in setups),
        f"reach budget {reach.BUDGET_S} s per rung at reference speed",
    ]
    problems = setup_problems + [("reach", sev, msg) for sev, msg in reach_problems]
    return metrics, samples, problems, notes


def traced(args, wl, setup_problems, env):
    from tracer import Tracer, layer_metric_names

    plain, _ = timed_loop(wl, args.seconds)
    tr = Tracer()
    tr.install()
    try:
        samples, passes = timed_loop(wl, args.seconds, tr)
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics(passes)
    if wl.layer_metrics is not None:
        metrics.update(wl.layer_metrics([s.scaled for s in samples]))
    ops_plain = latency_metrics([s.scaled for s in plain])[0]["ops_per_s"][0]
    ops_traced = latency_metrics([s.scaled for s in samples])[0]["ops_per_s"][0]
    metrics["trace.ops_per_s_untraced"] = (ops_plain, "1/s")
    metrics["trace.ops_per_s_traced"] = (ops_traced, "1/s")
    metrics["trace.overhead_frac"] = (ops_plain / ops_traced - 1.0, "ratio")
    ordered = {name: metrics.get(name, (0.0, unit)) for name, unit in layer_metric_names()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.npz"
    tr.save(spans_path, env)
    notes = [
        f"{passes} traced passes; per-layer values are per pass of the op mix",
        f"{len(tr.start)} spans written to {spans_path.relative_to(ROOT)}",
        "kernels.bytes_computed is 8 bytes per kernel item, computed, not measured",
    ]
    return ordered, plain + samples, setup_problems, notes


def run_workload(args) -> int:
    import workloads

    wl = workloads.build(args.workload, args.seed, OUT)
    try:
        setup_problems = warm_up(wl)
        setup_wall = time.perf_counter() - T_START
        # a probe in a cold, fresh interpreter runs slow, so only the one after set-up counts
        probe = clock.probe()
        setup = (clock.scaled(setup_wall, probe, probe), setup_wall)
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "setup_wall_s": setup[1]}))
            return 0
        if args.trace:
            env = environment()
            metrics, samples, problems, notes = traced(args, wl, setup_problems, env)
        else:
            metrics, samples, problems, notes = untraced(args, wl, setup, setup_problems)
            env = environment()
    finally:
        if wl.cleanup is not None:
            wl.cleanup()
    return emit(args.workload, metrics, samples, problems, env, notes)


def run_all(args) -> int:
    """Each workload in its own process; their tables, then one summary."""
    code = 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed: {proc.stderr.strip()[-2000:]}")
            code = 1
            continue
        summary[name] = json.loads(lines[-1])
    if summary:
        names = list(next(iter(summary.values()))["metrics"])
        print(f"\n{'metric':<32}" + "".join(f"{w:>16}" for w in summary))
        for m in names:
            unit = next(iter(summary.values()))["metrics"][m]["unit"]
            row = "".join(f"{r['metrics'][m]['value']:>16.6g}" for r in summary.values())
            print(f"{m + ' [' + unit + ']':<32}{row}")
        row = "".join(f"{r['failed']:>9}/{r['attempted']:<6}" for r in summary.values())
        print(f"{'failed/attempted':<32}{row}")
    return code


def smoke() -> int:
    """Every workload: one checked pass, one traced op, one rung per ladder."""
    import reach
    import workloads
    from tracer import Tracer, layer_metric_names

    names = {n for n, _ in layer_metric_names()}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        wl = workloads.build(name, 1, OUT)
        try:
            samples = [run_op(op) for op in wl.ops]
            tr = Tracer()
            tr.install()
            try:
                samples.append(run_op(wl.ops[0], len(samples), tr))
            finally:
                tr.uninstall()
            layer = tr.layer_metrics(1)
            if not set(layer) <= names or not len(tr.start):
                correct = False
        finally:
            if wl.cleanup is not None:
                wl.cleanup()
        attempted += len(samples)
        failed += sum(1 for s in samples if s.problems)
        problems = summarize_problems(samples)
        correct = correct and not any(sev == "value" for s in samples for sev, _ in s.problems)
        print(f"{name}: {len(samples)} ops, {sum(1 for s in samples if s.problems)} failed")
        if problems:
            print("\n".join(problems))
    reach_metrics, reach_problems = reach.measure(1, max_rungs=1)
    correct = correct and not reach_problems and all(v > 0 for v, _ in reach_metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "folner_entropy" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and the CLI jobs it starts, so that the speed
    # probe (clock.py) and the work it scales run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
