"""Subset-lattice kernels.

Feature subsets live in plain integers (bit j = feature j). A lattice table
is indexed by the subset integer on its leading axis: shape (2^d,) for one
value per subset, or (2^d, columns) for many games side by side
(lattice-major), so the values of one subset are contiguous. :func:`halves`
splits such a table by feature j into the sets without j and the matching
sets with j, as views; every with-or-without-j walk (the in-place transforms
here, the Shapley contraction, the realism split and the cube
decompositions) runs on those views, giving the d * 2^(d-1) schedule. On a
lattice-major table the pass over bit j runs over 2^(d-1-j) contiguous
blocks of 2^j * columns entries, not over 2^j-entry runs of each column.
:data:`EXACT_CAP` bounds the d of every lattice table the package builds.
"""

from __future__ import annotations

import numpy as np

# The largest d whose 2^d lattice tables are built: value tables, exact
# Shapley and the realism split. Above it cohort games score subsets lazily.
EXACT_CAP = 20


def subset_sizes(d: int) -> np.ndarray:
    """Popcount of every subset integer below 2^d."""
    return np.bitwise_count(np.arange(1 << d, dtype=np.uint32)).astype(np.int64)


def halves(table: np.ndarray, d: int, j: int):
    """Views (lo, hi) of a lattice table split by feature j.

    The subset index is the leading axis of ``table``, of shape (2^d,) or
    (2^d, *columns). ``lo`` holds the sets without j and ``hi`` the sets
    u | 2^j at the same positions, each of shape (2^(d-1-j), 2^j, *columns);
    both are in ascending subset order along their first two axes.
    """
    if not table.flags.c_contiguous:
        raise ValueError("lattice transforms need a C-contiguous table")
    v = table.reshape(1 << (d - 1 - j), 2, 1 << j, *table.shape[1:])
    return v[:, 0], v[:, 1]


def superset_sum_inplace(table: np.ndarray, d: int) -> np.ndarray:
    """table[u] <- sum over supersets w of u of table[w], per column."""
    for j in range(d):
        lo, hi = halves(table, d, j)
        lo += hi
    return table


def subset_sum_inplace(table: np.ndarray, d: int) -> np.ndarray:
    """table[u] <- sum over subsets v of u of table[v] (zeta transform)."""
    for j in range(d):
        lo, hi = halves(table, d, j)
        hi += lo
    return table


def mobius_inplace(table: np.ndarray, d: int) -> np.ndarray:
    """Invert :func:`subset_sum_inplace`: signed inclusion-exclusion over subsets."""
    for j in range(d):
        lo, hi = halves(table, d, j)
        hi -= lo
    return table
