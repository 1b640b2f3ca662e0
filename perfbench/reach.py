"""Reach ladders: the largest problem that finishes within a time budget.

Each ladder climbs sizes 2^j and stops at the first rung that raises,
returns a wrong value or takes longer than ``BUDGET_S`` (at reference
speed, see ``clock.py``) on the majority of up to ``TRIES`` tries. A
rung's time covers building the window and computing its entropy; the
system is built before the clock starts.

At the parent commit of this benchmark, on 2 cores with the numpy
kernels, the rungs either side of the budget took:

- d = 2 Bernoulli box: side 512 in 0.21 s, side 1024 in 1.06 s;
- rotation on Z/N, |F| = 64: N = 4000 in 0.33 s, N = 8000 in 0.69 s;
- Markov interval: n = 16 in 2 ms; n = 32 raises EnumerationCapError.

The budget sits near the geometric middle of the closest pair, so no
rung is within 25% of it.
"""

from __future__ import annotations

import time

import clock
import folner_entropy as fe
import refs
from workloads import arc_cuts, arc_partition, rotation, seeded, site_distribution, two_state_chain

BUDGET_S = 0.48
TRIES = 3
TOL = 1e-9


def _climb(rungs, compute, reference):
    """Largest rung size computed correctly within the budget.

    Rung times are at reference speed (``clock.py``), which on a busy
    host can err either way for one call. A rung is therefore judged by
    the majority of up to ``TRIES`` tries; a first try under half or over
    twice the budget settles it alone. Returns (reach, problems); a wrong
    value is a problem, a cap error or an over-budget rung ends the climb.
    """
    reach = 0
    for size, args in rungs:
        within = over = 0
        while max(within, over) <= TRIES // 2:
            before = clock.probe()
            t0 = time.perf_counter()
            try:
                value = compute(*args)
            except fe.EnumerationCapError:
                return reach, []
            elapsed = clock.scaled(time.perf_counter() - t0, before, clock.probe())
            want = reference(size, *args)
            if abs(value - want) > TOL * max(1.0, abs(want)):
                return reach, [("value", f"reach rung {size}: {value!r}, reference {want!r}")]
            if elapsed <= BUDGET_S:
                within += 1 if elapsed > BUDGET_S / 2 else TRIES
            else:
                over += 1 if elapsed < 2 * BUDGET_S else TRIES
        if over > within:
            break
        reach = size
    return reach, []


def interval_reach(seed: int, max_rungs: int = 21):
    """Largest n = 2^j with H(alpha^[0,n)) of a 2-state Markov chain in budget."""
    P = two_state_chain(seeded(seed, 5))
    pi = refs.stationary(P)
    mk = fe.markov_shift(None, P)
    rungs = [(2**j, (2**j,)) for j in range(min(max_rungs, 21))]
    return _climb(
        rungs,
        lambda n: fe.conditional_block_entropy(mk, None, fe.FolnerSubset.interval(0, n)),
        lambda size, n: refs.markov_interval_entropy(pi, P, n),
    )


def box_reach(seed: int, max_rungs: int = 12):
    """Largest |F| = side^2, side = 2^j, for a 3-symbol Bernoulli d = 2 box."""
    p = site_distribution(seeded(seed, 6), 3)
    bern = fe.bernoulli_shift(p, d=2)
    H1 = refs.shannon(p)
    rungs = [(4**j, (2**j,)) for j in range(min(max_rungs, 12))]
    return _climb(
        rungs,
        lambda side: fe.conditional_block_entropy(bern, None, fe.FolnerSubset.box(2, side)),
        lambda size, side: size * H1,
    )


def _rotation_rungs(seed: int, max_rungs: int):
    rng = seeded(seed, 7)
    for j in range(min(max_rungs, 8)):
        N = 1000 * 2**j
        cuts = arc_cuts(rng, N, 8, 64)
        rot = rotation(N)
        yield N, (rot, arc_partition(rot, cuts), cuts)


def atoms_reach(seed: int, max_rungs: int = 8):
    """Largest N = 1000 * 2^j whose |F| = 64 rotation window entropy is in budget."""
    return _climb(
        _rotation_rungs(seed, max_rungs),
        lambda rot, alpha, cuts: fe.conditional_block_entropy(
            rot, alpha, fe.FolnerSubset.interval(0, 64)
        ),
        lambda N, rot, alpha, cuts: refs.arc_join_entropy(N, cuts, 64),
    )


def measure(seed: int, max_rungs: int = 21):
    """All three ladders: ({metric: (value, unit)}, problems)."""
    metrics, problems = {}, []
    for name, unit, ladder in (
        ("reach_interval_sites", "sites", interval_reach),
        ("reach_box_sites", "sites", box_reach),
        ("reach_atoms", "atoms", atoms_reach),
    ):
        value, found = ladder(seed, max_rungs)
        metrics[name] = (float(value), unit)
        problems += found
    return metrics, problems
