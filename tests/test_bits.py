import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortshap import bits
from cohortshap.shapley import _phi_from_tables

from .helpers import anchored_components_naive, plain_lattice_transform

TRANSFORMS = {
    "superset": bits.superset_sum_inplace,
    "subset": bits.subset_sum_inplace,
    "mobius": bits.mobius_inplace,
}


def test_subset_sizes():
    sizes = bits.subset_sizes(4)
    assert sizes[0] == 0
    assert sizes[0b1011] == 3
    assert sizes[-1] == 4


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
def test_mobius_matches_inclusion_exclusion(d, seed):
    g = np.random.default_rng(seed).normal(size=1 << d)
    table = g.copy()
    bits.mobius_inplace(table, d)
    assert table == pytest.approx(anchored_components_naive(g, d), abs=1e-12)
    # zeta undoes mobius
    bits.subset_sum_inplace(table, d)
    assert table == pytest.approx(g, abs=1e-12)


def test_superset_sum_counts_supersets():
    d = 3
    table = np.ones(1 << d)
    bits.superset_sum_inplace(table, d)
    sizes = bits.subset_sizes(d)
    # subset u has 2^(d - |u|) supersets, itself included
    assert np.array_equal(table, 2.0 ** (d - sizes))


def test_transforms_work_on_stacked_tables():
    d = 2
    stacked = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0]]).T.copy()
    bits.superset_sum_inplace(stacked, d)
    assert stacked[:, 0] == pytest.approx([10.0, 6.0, 7.0, 4.0])
    assert stacked[:, 1] == pytest.approx([2.0, 2.0, 1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_lattice_major_tables_match_their_columns(d, cols, seed):
    # a (2^d, cols) table is cols lattice tables side by side: each column's
    # superset sum is bit for bit its own 1-D sum, and each contracted row
    # is its own 1-D contraction
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(1 << d, cols))
    counts = rng.integers(0, 1000, size=(1 << d, cols)).astype(np.int32)
    for table in (values, counts):
        summed = bits.superset_sum_inplace(table.copy(), d)
        for c in range(cols):
            alone = bits.superset_sum_inplace(table[:, c].copy(), d)
            assert np.array_equal(summed[:, c], alone)
    rows = _phi_from_tables(values, d)
    assert rows.shape == (cols, d)
    for c in range(cols):
        alone = _phi_from_tables(values[:, c].copy(), d)
        np.testing.assert_allclose(rows[c], alone[0], rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(TRANSFORMS)),
    st.integers(1, 14),
    st.integers(0, 9),
    st.sampled_from(["float64", "uint8", "int16", "int32"]),
    st.integers(0, 2**32 - 1),
)
# shapes whose low bits are walked across the blocks
@example("superset", 14, 0, "float64", 0)
@example("superset", 14, 2, "uint8", 1)
@example("subset", 12, 3, "int16", 2)
@example("mobius", 10, 9, "int32", 3)
@example("mobius", 13, 5, "float64", 4)
def test_transforms_equal_plain_passes(kind, d, columns, dtype, seed):
    # columns 0 is a 1-D table. Every transform gives each entry the same
    # additions in the same order as plain passes over the halves, whichever
    # way it walks a pass; float normals show a change of order, and the
    # integer tables wrap the same way on overflow.
    rng = np.random.default_rng(seed)
    shape = (1 << d, columns) if columns else (1 << d,)
    if dtype == "float64":
        table = rng.normal(size=shape)
    else:
        info = np.iinfo(dtype)
        table = rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=dtype)
    expected = plain_lattice_transform(table, d, kind)
    got = TRANSFORMS[kind](table.copy(), d)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_lo_half_popcounts_are_the_smaller_lattice():
    # the sets without j, in halves order, are the (d-1)-bit integers with a
    # 0 inserted at bit j: one weight vector serves every bit's pass
    for d in range(1, bits.EXACT_CAP + 1):
        sizes, smaller = bits.subset_sizes(d), bits.subset_sizes(d - 1)
        for j in range(d):
            assert np.array_equal(bits.halves(sizes, d, j)[0].ravel(), smaller)


def test_non_contiguous_rejected():
    table = np.zeros((4, 4))[:, ::2]
    with pytest.raises(ValueError):
        bits.superset_sum_inplace(table, 1)
