"""Answer checks computed apart from the program under test.

:class:`ExactPPV` builds the transition matrix from the graph's edge
list with scipy alone and LU-factors ``I - (1-alpha) W^T``; solving
against ``alpha * e_u`` gives the exact PPV of ``u`` (to rounding).  The
``check_*`` functions raise :class:`CheckFailed` naming what broke; the
workloads call them on sampled answers and ``selfcheck.py`` shows each
one tripping on a deliberately corrupted answer.

Error bound.  Every stored vector of a GPA/HGPA index is a per-entry
*lower* approximation of its exact value, short by at most
``eps = max(tol, prune)`` per entry (the iteration stops below ``tol``,
pruning drops entries below ``prune``).  A query combines those vectors
with skeleton weights that are themselves PPV scores (summing to at most
1) scaled by ``1/alpha``, so to first order the answer is short by at
most ``eps / alpha`` per entry and never above the exact value.  The
checks therefore require ``answer <= exact + 1e-12`` and
``exact - answer <= eps / alpha`` entrywise: ``6.7e-4`` on web at
``tol = prune = 1e-4`` (largest gap seen: ``2.2e-4``, GPA), ``1.3e-2``
on pld HGPA_ad at ``prune = 2e-3`` (largest gap seen: ``2.5e-3``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

ROUNDING = 1e-12
"""Slack above the exact value allowed for floating-point rounding."""


class CheckFailed(AssertionError):
    """An answer broke one of the benchmark's correctness checks."""


def gap_bound(alpha: float, tol: float, prune: float) -> float:
    """Largest per-entry shortfall the method allows (module docstring)."""
    return max(tol, prune) / alpha


class ExactPPV:
    """Exact PPVs of one edge set by sparse LU (no code of the program)."""

    def __init__(self, num_nodes: int, src: np.ndarray, dst: np.ndarray,
                 alpha: float) -> None:
        deg = np.bincount(src, minlength=num_nodes).astype(np.float64)
        if np.any(deg == 0):
            raise CheckFailed("oracle: the edge set has dangling nodes")
        w = sp.csr_matrix(
            (1.0 / deg[src], (src, dst)), shape=(num_nodes, num_nodes)
        )
        system = sp.identity(num_nodes, format="csc") - (1.0 - alpha) * w.T.tocsc()
        self._lu = splu(system.tocsc())
        self.num_nodes = num_nodes
        self.alpha = alpha

    def solve(self, nodes: np.ndarray) -> np.ndarray:
        """Exact PPV rows ``(len(nodes), n)``."""
        rhs = np.zeros((self.num_nodes, len(nodes)))
        rhs[np.asarray(nodes), np.arange(len(nodes))] = self.alpha
        return self._lu.solve(rhs).T


def check_against_exact(label: str, nodes: np.ndarray, answers: np.ndarray,
                        exact: np.ndarray, bound: float) -> float:
    """Lower approximation within ``bound``; returns the largest gap."""
    over = answers - exact
    if over.max(initial=-np.inf) > ROUNDING:
        i, v = np.unravel_index(int(np.argmax(over)), over.shape)
        raise CheckFailed(
            f"{label}: PPV({int(nodes[i])})[{int(v)}] = {float(answers[i, v])!r} "
            f"exceeds the exact {float(exact[i, v])!r} (lower-approximation broken)"
        )
    gap = float((-over).max(initial=0.0))
    if gap > bound:
        raise CheckFailed(
            f"{label}: answer falls {gap:.3g} below the exact PPV, more than "
            f"the bound {bound:.3g}"
        )
    return gap


def check_bitwise(label: str, got: np.ndarray, want: np.ndarray) -> None:
    """Rows must be identical to the last bit."""
    if got.shape != want.shape or not np.array_equal(got, want):
        bad = np.argwhere(got != want) if got.shape == want.shape else []
        where = f" first at {tuple(int(x) for x in bad[0])}" if len(bad) else ""
        raise CheckFailed(f"{label}: rows differ from the reference{where}")


def reference_topk(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` of dense rows by (score descending, id ascending)."""
    ids = np.empty((rows.shape[0], k), dtype=np.int64)
    scores = np.empty((rows.shape[0], k))
    col = np.arange(rows.shape[1])
    for r in range(rows.shape[0]):
        order = np.lexsort((col, -rows[r]))[:k]
        ids[r] = order
        scores[r] = rows[r, order]
    return ids, scores


def check_topk(label: str, ids: np.ndarray, scores: np.ndarray,
               full_rows: np.ndarray, k: int) -> None:
    """Top-k must equal the top-k of the same engine's full rows."""
    want_ids, want_scores = reference_topk(full_rows, k)
    if not (np.array_equal(ids, want_ids) and np.array_equal(scores, want_scores)):
        raise CheckFailed(f"{label}: top-{k} differs from the full row's top-{k}")
