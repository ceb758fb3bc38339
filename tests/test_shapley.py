import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    AbsoluteThreshold,
    ColumnSchema,
    Dataset,
    Identity,
    RangeFraction,
    attach_predictions,
    local_attributions,
    make_cs_game,
    resolve_rules,
    shapley_exact,
    shapley_permutation,
    shapley_weight_table,
    similarity_row,
)
from cohortshap import shapley
from cohortshap.bits import halves, subset_sizes
from cohortshap.shapley import EXACT_CAP, _permutations, _phi_from_tables
from cohortshap.similarity import cohort_table_chunks, cohort_value_tables, match_codes

from .conftest import random_dataset, t8_target, titanic_shaped_surrogate
from .helpers import (
    per_bit_gather_contraction,
    scatter_permutation,
    shapley_all_permutations,
    table_game,
)


def random_game(d: int, seed: int):
    vals = np.random.default_rng(seed).normal(size=1 << d)
    vals[0] = 0.0
    return table_game(vals, "test")


def test_weight_table_examples():
    w = shapley_weight_table(3)
    assert w == pytest.approx([1 / 3, 1 / 6, 1 / 3])
    assert shapley_weight_table(1).tolist() == [1.0]
    with pytest.raises(ValueError):
        shapley_weight_table(0)
    with pytest.raises(ValueError):
        shapley_weight_table(EXACT_CAP + 1)


def test_weight_table_normalization():
    # weights times the count of size-s subsets of -j sum to one
    for d in (1, 2, 5, 13, EXACT_CAP):
        w = shapley_weight_table(d)
        total = sum(w[s] * math.comb(d - 1, s) for s in range(d))
        assert total == pytest.approx(1.0, rel=1e-12)


def hockey_stick_holds(d: int, s: int) -> bool:
    """Check sum_{r=s-1}^{d-1} C(r, s-1) == C(d, s) with exact integers."""
    lhs = sum(math.comb(r, s - 1) for r in range(s - 1, d))
    return lhs == math.comb(d, s)


def test_hockey_stick_identity():
    assert hockey_stick_holds(5, 3)  # 1 + 3 + 6 == 10
    for d in range(1, 21):
        for s in range(1, d + 1):
            assert hockey_stick_holds(d, s)


def test_t8_cs_exact(t8):
    t = t8_target(t8)
    (att,) = local_attributions(t8, "cs", [t], [Identity()] * 3)
    assert att.phi == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
    assert att.total == pytest.approx(1.5)
    (att2,) = local_attributions(t8, "cs2", [t], [Identity()] * 3)
    assert att2.phi == pytest.approx([1.5, 0.75, 0.0], abs=1e-12)
    assert att2.total == pytest.approx(2.25)


def test_constant_game_gives_zero():
    att = shapley_exact(table_game(np.zeros(16), "zero"))
    assert att.phi.tolist() == [0.0] * 4
    assert att.total == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
def test_exact_matches_exhaustive_permutations(d, seed):
    game = random_game(d, seed)
    att = shapley_exact(game)
    table = game.value_table()
    phi, total = shapley_all_permutations(lambda m: table[m], d)
    assert att.phi == pytest.approx(phi, abs=1e-10)
    assert att.total == pytest.approx(total, abs=1e-12)
    assert att.phi.sum() == pytest.approx(att.total, abs=1e-10 * max(1, abs(total)))


def test_symmetry_axiom():
    # two players with identical marginal values get identical attributions
    rng = np.random.default_rng(8)
    d = 4
    vals = np.zeros(1 << d)
    for u in range(1 << d):
        canon = (u & 0b1100) | (1 if u & 0b0011 else 0)
        vals[u] = 0.0 if u == 0 else np.sin(canon * 2.1) + 0.1 * canon
    game = table_game(vals, "sym")
    att = shapley_exact(game)
    assert att.phi[0] == pytest.approx(att.phi[1], abs=1e-12)


def test_dummy_axiom():
    # feature 2 never changes the value
    rng = np.random.default_rng(5)
    base = rng.normal(size=4)
    vals = np.array([base[u & 0b011] - base[0] for u in range(8)])
    att = shapley_exact(table_game(vals, "dummy"))
    assert att.phi[2] == 0.0


def test_additivity_axiom():
    d = 5
    a, b = random_game(d, 1), random_game(d, 2)
    alpha, beta = 0.7, -1.3
    combo = table_game(alpha * a.value_table() + beta * b.value_table(), "combo")
    lhs = shapley_exact(combo).phi
    rhs = alpha * shapley_exact(a).phi + beta * shapley_exact(b).phi
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_exact_cap_enforced():
    class Fake:
        d = EXACT_CAP + 1
        method = "x"
        target = None

    with pytest.raises(ValueError, match="shapley_permutation"):
        shapley_exact(Fake())


def test_mc_determinism():
    game = random_game(8, 77)
    a = shapley_permutation(game, 64, seed=123)
    b = shapley_permutation(game, 64, seed=123)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.stderr, b.stderr)
    c = shapley_permutation(game, 64, seed=124)
    assert not np.array_equal(a.phi, c.phi)


def test_mc_needs_two_permutations():
    with pytest.raises(ValueError):
        shapley_permutation(random_game(3, 0), 1, seed=0)


def test_a_loop_of_games_draws_its_orders_once(monkeypatch):
    # single games at one (d, m, seed), as in an explain loop, share the
    # last draw; each estimate is still that of its own game
    shapley._draw.cache_clear()
    draws, draw = [], shapley._permutations

    def counting(d, m, seed):
        draws.append((d, m, seed))
        return draw(d, m, seed)

    monkeypatch.setattr(shapley, "_permutations", counting)
    games = [random_game(6, 1), random_game(6, 2)]
    got = [shapley_permutation(game, 40, seed=3) for game in games]
    assert draws == [(6, 40, 3)]
    monkeypatch.undo()
    for game, a in zip(games, got):
        b = scatter_permutation(game, 40, 3)
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.stderr, b.stderr)
        assert a.total == b.total
    assert not np.array_equal(got[0].phi, got[1].phi)


def test_a_kept_draw_is_read_only():
    # every caller shares the kept draw's arrays, so none may write into them
    masks, (arrived, _) = shapley._mask_choice(6, "mc", 40, 3)
    assert shapley._mask_choice(6, "mc", 40, 3)[0] is masks
    for array in (masks, arrived):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_mc_efficiency_and_convergence(t8):
    t = t8_target(t8)
    game = make_cs_game(t8, similarity_row([Identity()] * 3, t8, t), t)
    att = shapley_permutation(game, 5000, seed=9)
    assert att.phi.sum() == pytest.approx(att.total, abs=1e-12)
    exact = shapley_exact(game)
    for j in range(3):
        bound = 4 * max(att.stderr[j], 1e-12)
        assert abs(att.phi[j] - exact.phi[j]) <= bound + 1e-12
    assert att.permutations_used == 5000


def test_mc_stderr_shrinks():
    game = random_game(6, 3)
    small = shapley_permutation(game, 100, seed=4)
    large = shapley_permutation(game, 6400, seed=4)
    assert large.stderr.mean() < small.stderr.mean()


@pytest.mark.parametrize("d,k,m,seed", [(1, 1, 5, 0), (6, 7, 300, 4), (63, 2, 9, 2**40)])
def test_permutations_prefix_invariant(d, k, m, seed):
    # order k depends only on (seed, k): a longer run extends a shorter one,
    # whether either ends on a whole pair or on an unpaired order
    for short in (k, k + 1):
        for long in (m, m + 1):
            want = _permutations(d, long, seed)[:short]
            assert np.array_equal(_permutations(d, short, seed), want)


@pytest.mark.parametrize("d,m", [(1, 4), (2, 7), (6, 300), (63, 9)])
def test_odd_orders_reverse_the_even_ones(d, m):
    perms = _permutations(d, m, 11)
    assert np.array_equal(perms[1::2], perms[0 : 2 * (m // 2) : 2, ::-1])


@pytest.mark.parametrize("d", [1, 6, 63])
def test_permutations_are_orders(d):
    perms = _permutations(d, 200, 17)
    assert perms.shape == (200, d) and perms.dtype == np.int64
    assert (np.sort(perms, axis=1) == np.arange(d)).all()


def test_permutations_uniform_at_d3():
    # chi-square over the 6 orders, 5 degrees of freedom: 20.52 is the
    # 0.999 quantile. An odd order is the reverse of the even one before
    # it, so only the even orders are independent draws.
    m = 6000
    codes = _permutations(3, 2 * m, 8)[0::2] @ np.array([9, 3, 1])
    counts = np.unique(codes, return_counts=True)[1]
    assert len(counts) == 6
    chi2 = ((counts - m / 6) ** 2 / (m / 6)).sum()
    assert chi2 < 20.52


def pairwise_game(d: int, seed: int):
    """A game of main effects and pairwise interactions on d features, and
    the largest magnitude in its table."""
    rng = np.random.default_rng(seed)
    main = rng.normal(size=d)
    pair = np.triu(rng.normal(size=(d, d)), 1)
    bits = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(float)
    table = bits @ main + np.einsum("ui,ij,uj->u", bits, pair, bits)
    return table_game(table, "pairwise"), float(np.abs(table).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_reversed_pairs_are_exact_on_pairwise_games(d, pairs, seed):
    # a pair's increments of j add 2 main_j plus j's interaction with every
    # other feature, once from each side: twice its Shapley value
    game, scale = pairwise_game(d, seed)
    exact = shapley_exact(game)
    mc = shapley_permutation(game, 2 * pairs, seed=seed)
    assert np.abs(mc.phi - exact.phi).max() <= 1e-12 * scale
    assert mc.stderr.max() <= 1e-12 * scale
    for m in (5, 41):
        odd = shapley_permutation(game, m, seed=seed)
        assert odd.phi.sum() == pytest.approx(odd.total, abs=1e-12 * scale)
        assert np.isfinite(odd.stderr).all()


def test_stderr_is_calibrated_on_cohort_games():
    # over 200 seeds the spread of each feature's estimate matches the mean
    # reported stderr^2, and nearly every estimate is within 4 stderr of the
    # exact value; independent orders pass this as well
    ds, _ = titanic_shaped_surrogate(seed=7)
    tenth = RangeFraction(0.1, 0.0, 1.0)
    rules = [Identity(), Identity(), tenth, Identity(), Identity(), tenth]
    for t in (0, 512):
        game = make_cs_game(ds, similarity_row(rules, ds, t), t)
        exact = shapley_exact(game).phi
        runs = [shapley_permutation(game, 200, seed=seed) for seed in range(200)]
        phi = np.array([att.phi for att in runs])
        stderr = np.array([att.stderr for att in runs])
        ratio = phi.var(axis=0, ddof=1) / (stderr**2).mean(axis=0)
        assert ((0.7 <= ratio) & (ratio <= 1.4)).all(), ratio
        assert (np.abs(phi - exact) <= 4 * stderr).mean() >= 0.99
        for m in (2, 3):
            att = shapley_permutation(game, m, seed=t)
            assert np.isfinite(att.stderr).all()


def test_mc_total_is_full_minus_empty():
    ds = random_dataset(40, 21, seed=5, n_binary=21)
    lazy = make_cs_game(ds, similarity_row([Identity()] * 21, ds, 3), 3)
    for game in (lazy, random_game(7, 9)):
        att = shapley_permutation(game, 16, seed=2)
        full, empty = game.values(np.array([(1 << game.d) - 1, 0]))
        assert att.total == full - empty


@pytest.mark.parametrize("columns", [1, 2, 3, 5, 8, 84])
def test_contraction_equals_the_per_bit_gather(columns):
    # one weight vector a call and the strided walk of short runs give the
    # GEMV the same weights and increments as a gather per bit
    rng = np.random.default_rng([21, columns])
    for d in range(1, 15):
        tables = rng.normal(size=(1 << d, columns))
        expected = per_bit_gather_contraction(tables, d)
        assert np.array_equal(_phi_from_tables(tables, d), expected)
        if columns == 1:
            assert np.array_equal(_phi_from_tables(tables[:, 0].copy(), d), expected)


@pytest.mark.parametrize("d,columns", [(1, 1), (6, 3), (10, 2), (14, 1), (14, 5)])
def test_dummy_feature_gets_exact_zero_in_every_table(d, columns):
    base = np.random.default_rng([d, columns]).normal(size=(1 << (d - 1), columns))
    u = np.arange(1 << d)
    for j in range(d):
        # every table's value at u reads u with bit j dropped
        without_j = (u >> (j + 1) << j) | (u & ((1 << j) - 1))
        phi = _phi_from_tables(base[without_j], d)
        assert np.all(phi[:, j] == 0.0)


# Contracts a saved lattice-major table whole and in the two chunks given,
# with BLAS on one thread.
_CONTRACT_CHILD = """
import sys
import numpy as np
from cohortshap.shapley import _phi_from_tables
tables, d, cut = np.load(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
whole = _phi_from_tables(tables, d)
split = np.concatenate([_phi_from_tables(tables[:, :cut], d),
                        _phi_from_tables(tables[:, cut:], d)])
np.save(sys.argv[4], np.stack([whole, split]))
"""


def _fsum_rows(tables, d):
    """(B, d) Shapley rows of lattice-major ``tables``, each an exactly
    rounded sum of its weighted increments."""
    w, sizes = shapley_weight_table(d), subset_sizes(d)
    rows = np.empty((tables.shape[1], d))
    for j in range(d):
        lo, hi = halves(tables, d, j)
        weights = w[halves(sizes, d, j)[0]].reshape(-1, 1)
        terms = weights * (hi - lo).reshape(len(weights), -1)
        rows[:, j] = [math.fsum(t) for t in terms.T.tolist()]
    return rows


def test_contraction_rows_do_not_depend_on_the_chunk(tmp_path):
    # the squared cohort tables of the wide workload's frozen 160 x 14
    # Gaussian table, which the table chunks cut into 84 + 76 targets
    n, d = 160, 14
    rng = np.random.default_rng([191100467, 2, d])
    X = 0.6 * rng.normal(size=(n, 1)) + rng.normal(size=(n, d))
    y = X @ rng.normal(size=d) + float(rng.normal())
    schema = tuple(ColumnSchema(f"c{j}", "numeric") for j in range(d))
    ds = attach_predictions(Dataset(schema=schema, X=X), y)
    resolved = resolve_rules([AbsoluteThreshold(0.5)] * d, ds)
    chunks = cohort_table_chunks(ds, resolved, np.arange(n), None, True)
    assert [tables.shape[1] for _, tables in chunks] == [84, 76]
    tables = cohort_value_tables(match_codes(X, resolved, X), y, d, True)
    # A threaded GEMV splits the targets among its threads, and which kernel
    # path a row takes depends on where the split falls; the benchmark and
    # the byte-identical artifacts run BLAS on one thread, and so does this.
    np.save(tmp_path / "tables.npy", tables)
    src = Path(__file__).resolve().parent.parent / "src"
    one_thread = dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"
    )
    env = dict(os.environ, PYTHONPATH=str(src), **one_thread)
    argv = [tmp_path / "tables.npy", d, 84, tmp_path / "rows.npy"]
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT_CHILD, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    whole, split = np.load(tmp_path / "rows.npy")
    assert np.array_equal(whole, split)
    # the GEMV adds 2^13 increments one after another; measured 1.0e-13
    # here with |phi| up to 28.8
    exact = _fsum_rows(tables, d)
    for rows in (whole, _phi_from_tables(tables, d)):
        np.testing.assert_allclose(rows, exact, rtol=0, atol=2e-13)
