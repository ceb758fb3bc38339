"""Subset-lattice kernels.

Feature subsets live in plain integers (bit j = feature j). A lattice table
is indexed by the subset integer on its leading axis: shape (2^d,) for one
value per subset, or (2^d, columns) for many games side by side
(lattice-major), so the values of one subset are contiguous. :func:`halves`
splits such a table by feature j into the sets without j and the matching
sets with j, as views; every with-or-without-j walk (the in-place transforms
here, the Shapley contraction, the realism split and the cube
decompositions) runs on those views, giving the d * 2^(d-1) schedule.

On a lattice-major table the pass over bit j runs over 2^(d-1-j) contiguous
blocks of 2^j * columns entries, not over 2^j-entry runs of each column.
The transforms and the contraction walk a pass with :func:`pass_ufunc`: a
block at a time, or, when the blocks are many and their runs shorter than a
cache line, across the blocks, so the inner loop stays long on a single
table or a narrow chunk. Only the walk order changes, never an element's
operands, so both walks give the same bits.

The sets without j, in ascending order, are the (d-1)-bit integers with a 0
inserted at bit j, so the popcounts of ``halves(subset_sizes(d), d, j)[0]``
read in C order are ``subset_sizes(d - 1)`` for every j: one vector of
weights by set size serves every bit's pass.

:data:`EXACT_CAP` bounds the d of every lattice table the package builds.
"""

from __future__ import annotations

import numpy as np

# The largest d whose 2^d lattice tables are built: value tables, exact
# Shapley and the realism split. Above it cohort games score subsets lazily.
EXACT_CAP = 20

# A pass's runs are short when shorter than a cache line (LINE_BYTES) and
# of fewer than SHORT_RUN entries; a pass over short runs walks across its
# blocks once it has MIN_STRIDED_BLOCKS of them (see pass_ufunc). With fewer
# blocks the loop starts saved do not pay for building the transposed
# views, so a table of d <= 6 keeps the plain walk in every pass.
LINE_BYTES = 64
SHORT_RUN = 16
MIN_STRIDED_BLOCKS = 64


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


def pass_ufunc(ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out <- ufunc(a, b), elementwise over the views of one lattice pass.

    ``a``, ``b`` and ``out`` have a pass's :func:`halves` shape: 2^(d-1-j)
    blocks, each one contiguous run of 2^j * columns entries, so their
    (blocks, run) reshapes are views. The ufunc walks them a run at a time,
    unless the runs are short and the blocks many: then each run would pay
    an inner-loop start for a few entries, and the ufunc walks the
    transposed (run, blocks) views in C order instead, so the inner loop
    runs across the blocks. A run of a cache line or more stays plain: a
    walk across the blocks of a table larger than the cache would load each
    line once for every entry of its run. Either way each element gets the
    one ufunc call on the same operands, so the result is the same bit for
    bit.
    """
    blocks = len(out)
    if blocks >= MIN_STRIDED_BLOCKS:
        run = out.size // blocks
        # numpy walks runs of one entry across the blocks already
        if 1 < run < SHORT_RUN and run * out.itemsize < LINE_BYTES:
            a, b, out = (v.reshape(blocks, run).T for v in (a, b, out))
            ufunc(a, b, out=out, order="C")
            return
    ufunc(a, b, out=out)


def superset_sum_inplace(table: np.ndarray, d: int) -> np.ndarray:
    """table[u] <- sum over supersets w of u of table[w], per column."""
    for j in range(d):
        lo, hi = halves(table, d, j)
        pass_ufunc(np.add, lo, hi, lo)
    return table


def subset_sum_inplace(table: np.ndarray, d: int) -> np.ndarray:
    """table[u] <- sum over subsets v of u of table[v] (zeta transform)."""
    for j in range(d):
        lo, hi = halves(table, d, j)
        pass_ufunc(np.add, hi, lo, hi)
    return table


def mobius_inplace(table: np.ndarray, d: int) -> np.ndarray:
    """Invert :func:`subset_sum_inplace`: signed inclusion-exclusion over subsets."""
    for j in range(d):
        lo, hi = halves(table, d, j)
        pass_ufunc(np.subtract, hi, lo, hi)
    return table
