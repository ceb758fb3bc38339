import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    Identity,
    make_game,
    shapley_exact,
    shapley_permutation,
    shapley_weight_table,
)
from cohortshap.games import TableGame
from cohortshap.shapley import EXACT_CAP, _permutations

from .conftest import random_dataset, t8_target
from .helpers import shapley_all_permutations


def random_game(d: int, seed: int) -> TableGame:
    vals = np.random.default_rng(seed).normal(size=1 << d)
    vals[0] = 0.0
    return TableGame(vals, "test")


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
    att = shapley_exact(make_game("cs", t8, t, [Identity()] * 3))
    assert att.phi == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
    assert att.total == pytest.approx(1.5)
    att2 = shapley_exact(make_game("cs2", t8, t, [Identity()] * 3))
    assert att2.phi == pytest.approx([1.5, 0.75, 0.0], abs=1e-12)
    assert att2.total == pytest.approx(2.25)


def test_constant_game_gives_zero():
    att = shapley_exact(TableGame(np.zeros(16), "zero"))
    assert att.phi.tolist() == [0.0] * 4
    assert att.total == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
def test_exact_matches_exhaustive_permutations(d, seed):
    game = random_game(d, seed)
    att = shapley_exact(game)
    phi, total = shapley_all_permutations(lambda m: game.value(m), d)
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
    game = TableGame(vals, "sym")
    att = shapley_exact(game)
    assert att.phi[0] == pytest.approx(att.phi[1], abs=1e-12)


def test_dummy_axiom():
    # feature 2 never changes the value
    rng = np.random.default_rng(5)
    base = rng.normal(size=4)
    vals = np.array([base[u & 0b011] - base[0] for u in range(8)])
    att = shapley_exact(TableGame(vals, "dummy"))
    assert att.phi[2] == 0.0


def test_additivity_axiom():
    d = 5
    a, b = random_game(d, 1), random_game(d, 2)
    alpha, beta = 0.7, -1.3
    combo = TableGame(alpha * a.value_table() + beta * b.value_table(), "combo")
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


def test_mc_efficiency_and_convergence(t8):
    t = t8_target(t8)
    game = make_game("cs", t8, t, [Identity()] * 3)
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
    # order k depends only on (seed, k): a longer run extends a shorter one
    assert np.array_equal(_permutations(d, k, seed), _permutations(d, m, seed)[:k])


@pytest.mark.parametrize("d", [1, 6, 63])
def test_permutations_are_orders(d):
    perms = _permutations(d, 200, 17)
    assert perms.shape == (200, d) and perms.dtype == np.int64
    assert (np.sort(perms, axis=1) == np.arange(d)).all()


def test_permutations_uniform_at_d3():
    # chi-square over the 6 orders, 5 degrees of freedom: 20.52 is the
    # 0.999 quantile
    m = 6000
    codes = _permutations(3, m, 8) @ np.array([9, 3, 1])
    counts = np.unique(codes, return_counts=True)[1]
    assert len(counts) == 6
    chi2 = ((counts - m / 6) ** 2 / (m / 6)).sum()
    assert chi2 < 20.52


def test_mc_total_is_full_minus_empty():
    ds = random_dataset(40, 21, seed=5, n_binary=21)
    lazy = make_game("cs", ds, 3, [Identity()] * 21)
    for game in (lazy, random_game(7, 9)):
        att = shapley_permutation(game, 16, seed=2)
        assert att.total == game.value(game.full_mask) - game.value(0)
