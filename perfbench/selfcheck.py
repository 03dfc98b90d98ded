"""Show that every correctness check of the benchmark can fail.

Builds each workload once, runs one round, and checks that ``verify()``
passes on the real answers.  Then, for every check, it corrupts a copy of
the sampled answers (or the counters a check reads) in the one way that
check must catch, and requires ``verify()`` to raise with that check's
message.  Exit code 0 means every check passed clean answers and tripped
on its corrupted one.

    python3 perfbench/selfcheck.py            # all workloads (~1 minute)
    python3 perfbench/selfcheck.py serve-chaos
"""

from __future__ import annotations

import copy
import sys
from collections.abc import Callable
from typing import Any

import run  # noqa: F401  (sets thread caps and the import path first)
import numpy as np

from oracle import CheckFailed, ExactPPV
from workloads import ALPHA, WORKLOADS, Workload


def _worst_entry(row: np.ndarray) -> int:
    return int(np.argmax(row))


def bump_over_exact(wl: Workload) -> None:
    """Lift one entry 1e-9 above the exact PPV: breaks lower approximation."""
    sample = list(wl.samples[0])
    if len(sample) == 3:  # cluster-updates: (node, row, edge-set index)
        src, dst = wl.edges[sample[2]]
    else:
        src, dst = wl.graph.edge_arrays()
    exact = ExactPPV(wl.graph.num_nodes, src, dst, ALPHA).solve(np.asarray([sample[0]]))[0]
    row = sample[1].copy()
    j = _worst_entry(row)
    row[j] = exact[j] + 1e-9
    sample[1] = row
    wl.samples[0] = tuple(sample)


def drop_below_bound(wl: Workload) -> None:
    """Lower one entry by 0.05: further below exact than the bound."""
    sample = list(wl.samples[0])
    row = sample[1].copy()
    row[_worst_entry(row)] -= 0.05
    sample[1] = row
    wl.samples[0] = tuple(sample)


def one_ulp_lower(wl: Workload) -> None:
    """Move one entry down by one ulp: within every tolerance, not bitwise."""
    sample = list(wl.samples[0])
    row = sample[1].copy()
    j = _worst_entry(row)
    row[j] = np.nextafter(row[j], 0.0)
    sample[1] = row
    wl.samples[0] = tuple(sample)


def swap_topk(wl: Workload) -> None:
    """Swap the first two top-k ids: the scores no longer match them."""
    sample = list(wl.samples[0])
    ids = sample[2].copy()
    ids[[0, 1]] = ids[[1, 0]]
    sample[2] = ids
    wl.samples[0] = tuple(sample)


def silence_stragglers(wl: Any) -> None:
    """Pretend no straggler window ever fired."""
    wl.latency_hits = 0


def silence_hedges(wl: Any) -> None:
    """Pretend the resilience layer never hedged."""
    wl.router.res_stats.hedges = 0


CASES: dict[str, list[tuple[str, Callable[[Any], None], str]]] = {
    "serve-sharded": [
        ("entry above exact", bump_over_exact, "exceeds the exact"),
        ("entry far below exact", drop_below_bound, "below the exact PPV"),
        ("one ulp off the engine", one_ulp_lower, "vs GPAIndex.query_many"),
    ],
    "batch-sparse": [
        ("entry above exact", bump_over_exact, "exceeds the exact"),
        ("entry far below exact", drop_below_bound, "below the exact PPV"),
        ("sparse row one ulp off dense", one_ulp_lower, "query_many_sparse vs query_many"),
        ("top-k ids swapped", swap_topk, "top-20 differs"),
    ],
    "cluster-updates": [
        ("entry above exact after an update", bump_over_exact, "exceeds the exact"),
        ("entry far below exact after an update", drop_below_bound, "below the exact PPV"),
    ],
    "serve-chaos": [
        ("answer one ulp off the fault-free one", one_ulp_lower, "vs GPAIndex.query_many"),
        ("entry above exact", bump_over_exact, "exceeds the exact"),
        ("straggler kind never fired", silence_stragglers, "never fired"),
        ("no hedges", silence_hedges, "resilience idle"),
    ],
}


def check_workload(name: str) -> int:
    wl = WORKLOADS[name](seed=1)
    wl.max_rounds = 4
    wl.build()
    wl.run_round(0)
    if name == "cluster-updates":
        wl.run_round(1)  # a delete after the insert, and samples after both
        # Put a post-update sample first: the corruption lands there.
        wl.samples.sort(key=lambda s: -s[2])
    wl.verify()
    print(f"{name}: clean answers pass")
    bad = 0
    for label, corrupt, expect in CASES[name]:
        saved = (copy.copy(wl.samples), vars(wl).get("latency_hits"),
                 wl.router.res_stats.hedges if hasattr(wl, "router") else None)
        corrupt(wl)
        try:
            wl.verify()
        except CheckFailed as exc:
            ok = expect in str(exc)
            print(f"  {'trips' if ok else 'WRONG CHECK'}: {label}: {exc}")
            bad += not ok
        else:
            print(f"  DID NOT TRIP: {label}")
            bad += 1
        wl.samples = saved[0]
        if saved[1] is not None:
            wl.latency_hits = saved[1]
        if saved[2] is not None:
            wl.router.res_stats.hedges = saved[2]
    return bad


def main(argv: list[str]) -> int:
    names = argv or list(CASES)
    bad = sum(check_workload(name) for name in names)
    print("all checks trip on corrupted answers" if not bad else f"{bad} check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
