"""Independent oracles used to check the engines.

Everything in this file is deliberately naive: exhaustive permutation
enumeration and per-row python loops. None of it shares code with the
library, so agreement between the two is meaningful evidence. The two
exceptions, :func:`cohort` and :func:`dense`, are not oracles: they read one
target's match codes (``similarity_row``) the way the tests ask about
cohorts.
"""

import itertools

import numpy as np

from cohortshap.similarity import in_cohort, subset_int


def cohort(codes, u, d):
    """Boolean membership of cohort u (a bitmask or feature indices) in one
    target's match codes: everyone for the empty set."""
    return in_cohort(codes, subset_int(u, d))


def dense(codes, d):
    """(n, d) boolean indicators: bit j of each subject's match code."""
    return (codes[:, None] >> np.arange(d) & 1).astype(bool)


def shapley_all_permutations(value, d):
    """Average marginal contributions over all d! orders.

    ``value`` maps an integer subset bitmask (bit j = feature j) to a real.
    Returns (phi, total).
    """
    phi = np.zeros(d)
    full = (1 << d) - 1
    count = 0
    for perm in itertools.permutations(range(d)):
        mask = 0
        prev = value(0)
        for j in perm:
            mask |= 1 << j
            cur = value(mask)
            phi[j] += cur - prev
            prev = cur
        count += 1
    return phi / count, value(full) - value(0)


_PERM_CACHE = {}


def shapley_all_permutations_table(values, d):
    """Vectorized version of the all-orders oracle for table-backed games.

    Literally enumerates every one of the d! orders and averages marginal
    increments; no combinatorial weights are involved, so it stays an
    independent check on the engine's formula.
    """
    if d not in _PERM_CACHE:
        _PERM_CACHE[d] = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    perms = _PERM_CACHE[d]
    values = np.asarray(values, dtype=float)
    prefixes = np.bitwise_or.accumulate(np.int64(1) << perms, axis=1)
    masks = np.concatenate(
        [np.zeros((len(perms), 1), dtype=np.int64), prefixes], axis=1
    )
    increments = np.diff(values[masks], axis=1)
    samples = np.empty_like(increments)
    np.put_along_axis(samples, perms, increments, axis=1)
    return samples.mean(axis=0), float(values[-1] - values[0])


def naive_cohort_members(X, target_row, u, rule_fns):
    """Row-by-row cohort scan.

    ``rule_fns[j](x_tj, x_ij) -> bool`` decides per-feature similarity.
    ``u`` is an iterable of feature indices. Returns sorted member indices.
    """
    members = []
    for i in range(X.shape[0]):
        ok = True
        for j in u:
            if not rule_fns[j](target_row[j], X[i, j]):
                ok = False
                break
        if ok:
            members.append(i)
    return members


def naive_cohort_mean(X, y, target_row, u, rule_fns):
    members = naive_cohort_members(X, target_row, u, rule_fns)
    return float(np.mean([y[i] for i in members]))


def anchored_components_naive(g_values, d):
    """Inclusion-exclusion over explicit subset enumeration."""
    comps = np.zeros(1 << d)
    for u in range(1 << d):
        bits_u = [j for j in range(d) if u >> j & 1]
        total = 0.0
        for r in range(len(bits_u) + 1):
            for sub in itertools.combinations(bits_u, r):
                v = 0
                for j in sub:
                    v |= 1 << j
                total += (-1) ** (len(bits_u) - r) * g_values[v]
        comps[u] = total
    return comps


def anova_sigma2_naive(g_values, probs):
    """Variance components by brute-force conditional expectations.

    Works on the binary cube with independent Bernoulli(probs[j]) inputs.
    Builds every effect function by the inclusion-exclusion of conditional
    means, then takes its variance under the product measure.
    """
    d = len(probs)
    corners = np.array(list(itertools.product([0, 1], repeat=d)))[:, ::-1]
    # corner index c has bit j = corners[c, j]
    weights = np.ones(1 << d)
    for c in range(1 << d):
        for j in range(d):
            weights[c] *= probs[j] if corners[c, j] else 1.0 - probs[j]

    def cond_mean(v, corner):
        # E[g | z_v = corner_v]
        num = 0.0
        den = 0.0
        for c in range(1 << d):
            if all(corners[c, j] == corner[j] for j in range(d) if v >> j & 1):
                num += weights[c] * g_values[c]
                den += weights[c]
        return num / den

    effects = np.zeros((1 << d, 1 << d))  # effects[u, corner]
    for u in range(1 << d):
        bits_u = [j for j in range(d) if u >> j & 1]
        for c in range(1 << d):
            total = 0.0
            for r in range(len(bits_u) + 1):
                for sub in itertools.combinations(bits_u, r):
                    v = 0
                    for j in sub:
                        v |= 1 << j
                    total += (-1) ** (len(bits_u) - r) * cond_mean(v, corners[c])
            effects[u, c] = total

    sigma2 = np.zeros(1 << d)
    for u in range(1, 1 << d):
        m = np.sum(weights * effects[u])
        sigma2[u] = float(np.sum(weights * (effects[u] - m) ** 2))
    mean = float(np.sum(weights * g_values))
    return sigma2, mean, effects, weights


def t8_rows():
    """Full factorial on three binary predictors with y = 2*x1 + x2."""
    X = np.array(list(itertools.product([0, 1], repeat=3)))[:, ::-1].astype(float)
    y = 2.0 * X[:, 0] + X[:, 1]
    return X, y


def dense_min_witness_scale(points, ref_X, resolved):
    """Witness scan over every (point, reference row) pair: per column the
    pair needs |col - center| * (1 / radius), or +inf on a mismatch where
    the radius is 0 at every point; the largest need over columns, then the
    smallest over rows."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    need = np.zeros((len(points), ref_X.shape[0]))
    for j, rule in enumerate(resolved):
        col = ref_X[None, :, j]
        center = points[:, j][:, None]
        radius = rule.radius(center)
        if np.count_nonzero(radius) == 0:
            need[col != center] = np.inf
            continue
        ratio = np.abs(col - center)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio *= 1.0 / radius
        np.fmax(need, ratio, out=need)
    return need.min(axis=1)
