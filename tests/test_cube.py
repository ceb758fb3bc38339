import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    ColumnSchema,
    CubeFunction,
    Dataset,
    Identity,
    anchored_cube,
    anova_cube,
    anova_effect_tables,
    attach_predictions,
    reconstruct_cube,
    shapley_effects_independent,
    shapley_from_anchored,
    shapley_exact,
    variance_shapley,
)
from cohortshap.aggregate import global_attribution
from cohortshap.bits import subset_sizes
from cohortshap.games import TableGame

from .helpers import anchored_components_naive, anova_sigma2_naive, shapley_all_permutations


def random_cube(d, seed):
    return CubeFunction(np.random.default_rng(seed).normal(size=1 << d))


def test_product_cube():
    g = CubeFunction(np.array([0.0, 0.0, 0.0, 1.0]))
    dec = anchored_cube(g)
    assert dec.components == pytest.approx([0.0, 0.0, 0.0, 1.0])
    att = shapley_from_anchored(dec)
    assert att.phi == pytest.approx([0.5, 0.5])
    assert att.total == pytest.approx(1.0)


def test_additive_cube_components_confined_to_singletons():
    d = 4
    a = np.array([0.0, 1.5, -2.0, 0.25])
    vals = np.zeros(1 << d)
    for u in range(1 << d):
        vals[u] = 3.0 + sum(a[j] for j in range(d) if u >> j & 1)
    dec = anchored_cube(CubeFunction(vals))
    sizes = subset_sizes(d)
    assert dec.components[0] == pytest.approx(3.0)
    assert dec.components[sizes == 1] == pytest.approx(a)
    assert np.abs(dec.components[sizes > 1]).max() < 1e-12
    assert shapley_from_anchored(dec).phi == pytest.approx(a, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_anchored_matches_naive_and_reconstructs(d, seed):
    g = random_cube(d, seed)
    dec = anchored_cube(g)
    assert dec.components == pytest.approx(
        anchored_components_naive(g.values, d), abs=1e-10
    )
    assert reconstruct_cube(dec).values == pytest.approx(g.values, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_theorem_equivalence_random_cubes(d, seed):
    g = random_cube(d, seed)
    via_anchored = shapley_from_anchored(anchored_cube(g))
    direct = shapley_exact(TableGame(g.values - g.values[0], "cube"))
    assert via_anchored.phi == pytest.approx(direct.phi, abs=1e-9)
    assert via_anchored.total == pytest.approx(direct.total, abs=1e-10)


def test_lemma_support_property():
    # anchored component u, evaluated at corner e_w, is components[u] when
    # u is inside w and zero otherwise; checked through reconstruction
    d = 4
    g = random_cube(d, 99)
    dec = anchored_cube(g)
    for w in range(1 << d):
        contributions = [
            dec.components[u] for u in range(1 << d) if (u & w) == u
        ]
        assert g.values[w] == pytest.approx(sum(contributions), rel=1e-9, abs=1e-9)


def test_anova_linear_cube():
    # g = 2 z1 + z2 on d=3 uniform corners
    vals = np.zeros(8)
    for u in range(8):
        vals[u] = 2.0 * (u & 1) + ((u >> 1) & 1)
    a = anova_cube(CubeFunction(vals), [0.5, 0.5, 0.5])
    expect = np.zeros(8)
    expect[0b001] = 1.0
    expect[0b010] = 0.25
    assert a.sigma2 == pytest.approx(expect, abs=1e-12)
    assert shapley_effects_independent(a).phi == pytest.approx([1.0, 0.25, 0.0])


def test_anova_xor_cube():
    vals = np.array([0.0, 1.0, 1.0, 0.0])
    a = anova_cube(CubeFunction(vals), [0.5, 0.5])
    assert a.sigma2 == pytest.approx([0.0, 0.0, 0.0, 0.25], abs=1e-12)
    assert shapley_effects_independent(a).phi == pytest.approx([0.125, 0.125])


def test_anova_constant_cube():
    a = anova_cube(CubeFunction(np.full(8, 3.25)), [0.3, 0.6, 0.9])
    assert np.abs(a.sigma2).max() == 0.0
    assert a.mean == pytest.approx(3.25)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4),
)
def test_anova_matches_naive(d, seed, probs):
    probs = np.array(probs[:d])
    g = random_cube(d, seed)
    a = anova_cube(g, probs)
    sigma2, mean, effects, weights = anova_sigma2_naive(g.values, probs)
    assert a.sigma2 == pytest.approx(sigma2, abs=1e-9)
    assert a.mean == pytest.approx(mean, abs=1e-12)
    # variance sum identity
    total = float(np.sum(weights * (g.values - mean) ** 2))
    assert a.total_variance == pytest.approx(total, abs=1e-10)


def test_anova_orthogonality():
    d = 4
    g = random_cube(d, 123)
    probs = np.array([0.5, 0.3, 0.7, 0.45])
    tables = anova_effect_tables(g, probs)
    idx = np.arange(1 << d)
    weights = np.ones(1 << d)
    for j in range(d):
        on = (idx >> j) & 1 == 1
        weights[on] *= probs[j]
        weights[~on] *= 1 - probs[j]
    # decomposition reconstructs g and effects are mutually orthogonal
    assert tables.sum(axis=0) == pytest.approx(g.values, abs=1e-10)
    for u in range(1, 1 << d):
        for v in range(u):
            inner = float(np.sum(weights * tables[u] * tables[v]))
            assert abs(inner) < 1e-10


def test_anova_rejects_non_product_weights():
    # a mixture of two corner points is not a product measure
    w = np.zeros(4)
    w[0b00] = 0.5
    w[0b11] = 0.5
    with pytest.raises(ValueError, match="product"):
        anova_cube(CubeFunction(np.arange(4.0)), w)


@pytest.mark.parametrize("probs", [[1.5, 0.5], [-0.1, 0.5], [float("nan"), 0.5]])
def test_anova_rejects_coordinate_probs_outside_0_1(probs):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        anova_cube(CubeFunction(np.arange(4.0)), probs)


def test_anova_accepts_valid_corner_weights():
    probs = np.array([0.25, 0.6])
    idx = np.arange(4)
    w = np.ones(4)
    for j in range(2):
        on = (idx >> j) & 1 == 1
        w[on] *= probs[j]
        w[~on] *= 1 - probs[j]
    a = anova_cube(CubeFunction(np.arange(4.0)), w)
    b = anova_cube(CubeFunction(np.arange(4.0)), probs)
    assert a.sigma2 == pytest.approx(b.sigma2, abs=1e-12)


def test_variance_effects_match_exhaustive_shapley_on_var_game():
    # Shapley of the variance value function val(u) = var(E[g | z_u]) equals
    # the sigma^2 allocation under independence
    d = 3
    g = random_cube(d, 10)
    probs = np.array([0.5, 0.5, 0.5])
    sigma2, mean, effects, weights = anova_sigma2_naive(g.values, probs)

    def val_var(mask):
        # conditional mean given z_u, squared deviation, averaged
        cond = np.zeros(1 << d)
        for corner in range(1 << d):
            num = den = 0.0
            for c2 in range(1 << d):
                if (c2 & mask) == (corner & mask):
                    num += weights[c2] * g.values[c2]
                    den += weights[c2]
            cond[corner] = num / den
        return float(np.sum(weights * (cond - mean) ** 2))

    phi, total = shapley_all_permutations(val_var, d)
    att = shapley_effects_independent(anova_cube(g, probs))
    assert att.phi == pytest.approx(phi, abs=1e-9)
    assert att.total == pytest.approx(total, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda d: st.lists(st.integers(1, 3), min_size=d, max_size=d)),
    st.integers(0, 2**32 - 1),
)
def test_cohort_variance_shapley_equals_shapley_effects(grid, seed):
    # the paper's GSA bridge: with identity rules on a table that realises a
    # product measure on {0,1}^d, the var game is the closed Sobol' index,
    # so variance Shapley and the subject mean of the squared cohort Shapley
    # rows both equal the Shapley effects of the ANOVA. P(z_j = 1) = k_j / 4
    # is realised by repeating corner u prod_j (k_j or 4 - k_j) times.
    d = len(grid)
    k = np.array(grid)
    g = random_cube(d, seed)
    corners = np.arange(1 << d)
    bits = (corners[:, None] >> np.arange(d) & 1).astype(bool)
    rows = np.repeat(corners, np.where(bits, k, 4 - k).prod(axis=1))
    schema = tuple(ColumnSchema(f"z{j + 1}", "binary") for j in range(d))
    X = (rows[:, None] >> np.arange(d) & 1).astype(float)
    ds = attach_predictions(Dataset(schema=schema, X=X), g.values[rows])
    assert ds.n == 4**d
    effects = shapley_effects_independent(anova_cube(g, k / 4))
    rules = [Identity()] * d
    budget = 1e-12 * effects.total
    direct = variance_shapley(ds, rules)
    assert abs(direct.total - effects.total) <= budget
    assert np.abs(direct.phi - effects.phi).max() <= budget
    _, cs2_rows = global_attribution(ds, rules, per_subject=True)
    assert np.abs(cs2_rows.mean(axis=0) - effects.phi).max() <= budget
