"""Function decompositions on the binary cube and the Shapley values they imply.

A function g on {0,1}^d, stored as 2^d corner values, decomposes either
against the all-zeros anchor (no distribution needed) or in the ANOVA sense
under an independent product measure. Both decompositions yield Shapley
allocations: anchored components split evenly within their support sets,
variance components likewise, and the anchored route must agree with the
direct lattice formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import halves, mobius_inplace, subset_sizes, subset_sum_inplace
from .shapley import Attribution

ANOVA_TOL = 1e-9


@dataclass(frozen=True)
class CubeFunction:
    """Corner values g(e_u) indexed by the subset integer u."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if 1 << self.d != values.size or values.size < 2:
            raise ValueError(f"corner table size {values.size} is not 2^d with d>=1")
        if not np.isfinite(values).all():
            raise ValueError("corner values must be finite")

    @property
    def d(self) -> int:
        return max(int(self.values.size).bit_length() - 1, 0)


@dataclass(frozen=True)
class CubeDecomposition:
    """Anchored components with anchor 0: entry u holds the interaction term
    evaluated at the all-ones corner; summing entries over subsets of w
    reconstructs g(e_w)."""

    components: np.ndarray

    @property
    def d(self) -> int:
        return int(self.components.size).bit_length() - 1


def anchored_cube(g: CubeFunction) -> CubeDecomposition:
    """Signed subset sums (Moebius transform) of the corner values."""
    comps = g.values.copy()
    mobius_inplace(comps, g.d)
    return CubeDecomposition(comps)


def reconstruct_cube(dec: CubeDecomposition) -> CubeFunction:
    """Inverse of :func:`anchored_cube`."""
    values = dec.components.copy()
    subset_sum_inplace(values, dec.d)
    return CubeFunction(values)


def _even_split(components: np.ndarray, d: int) -> np.ndarray:
    """phi_j = sum over nonempty sets u containing j of components[u] / |u|."""
    shares = np.zeros(1 << d)
    shares[1:] = components[1:] / subset_sizes(d)[1:]
    return np.array([halves(shares, d, j)[1].sum() for j in range(d)])


def shapley_from_anchored(dec: CubeDecomposition) -> Attribution:
    """Split every interaction component evenly among its members."""
    phi = _even_split(dec.components, dec.d)
    total = float(dec.components[1:].sum())
    return Attribution(phi=phi, total=total, method="anchored")


@dataclass(frozen=True)
class AnovaDecomposition:
    """Variance components sigma2[u] = var of the order-|u| effect, plus the
    overall mean; components sum to the total variance."""

    sigma2: np.ndarray
    mean: float
    probs: np.ndarray

    @property
    def d(self) -> int:
        return int(self.sigma2.size).bit_length() - 1

    @property
    def total_variance(self) -> float:
        return float(self.sigma2[1:].sum())


def coordinate_probs(weights, d: int) -> np.ndarray:
    """The d coordinate probabilities of ``weights``: either d of them, each
    in [0, 1], or a product distribution over the 2^d corners, whose
    marginals they are (a distribution that does not factor is rejected);
    None is d fair coins."""
    if weights is None:
        return np.full(d, 0.5)
    weights = np.ascontiguousarray(weights, dtype=float)
    if weights.shape == (d,):
        if not 0 <= weights.min() <= weights.max() <= 1:  # NaN fails too
            raise ValueError("coordinate probabilities must lie in [0, 1]")
        return weights
    if weights.shape != (1 << d,):
        raise ValueError(
            f"weights must have length d={d} or 2^d={1 << d}, got {weights.shape}"
        )
    if weights.min() < 0 or not np.isclose(weights.sum(), 1.0, atol=1e-12):
        raise ValueError("corner weights must be a probability vector")
    probs = np.array([halves(weights, d, j)[1].sum() for j in range(d)])
    rebuilt = np.ones(1 << d)
    for j in range(d):
        off, on = halves(rebuilt, d, j)
        on *= probs[j]
        off *= 1.0 - probs[j]
    if np.max(np.abs(rebuilt - weights)) > ANOVA_TOL:
        raise ValueError("corner weights do not factor as a product measure")
    return probs


def _tensor_coefficients(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Expand corner values in the basis of products of centered coordinates
    (z_j - p_j); coefficient u multiplies the product over j in u."""
    d = int(values.size).bit_length() - 1
    coeffs = values.copy()
    for j in range(d):
        lo, hi = halves(coeffs, d, j)
        mean = (1.0 - probs[j]) * lo + probs[j] * hi
        hi -= lo
        lo[...] = mean
    return coeffs


def anova_cube(g: CubeFunction, weights) -> AnovaDecomposition:
    """ANOVA of g under independent Bernoulli coordinates.

    ``weights`` are the coordinate probabilities of :func:`coordinate_probs`.
    The corner table is re-expressed in the tensor basis of centered
    coordinates; the coefficient of each basis term gives its effect, and
    its variance is the squared coefficient times the coordinate variances.
    """
    d = g.d
    probs = coordinate_probs(weights, d)
    coeffs = _tensor_coefficients(g.values, probs)
    var_factor = np.ones(1 << d)
    for j in range(d):
        _, on = halves(var_factor, d, j)
        on *= probs[j] * (1.0 - probs[j])
    sigma2 = coeffs * coeffs * var_factor
    sigma2[0] = 0.0
    return AnovaDecomposition(sigma2=sigma2, mean=float(coeffs[0]), probs=np.array(probs, dtype=float))


def anova_effect_tables(g: CubeFunction, weights) -> np.ndarray:
    """Every ANOVA effect function evaluated on all corners: (2^d, 2^d).

    Row u is the order-|u| effect g_u; rows are mutually orthogonal under
    the product measure.
    """
    dec = anova_cube(g, weights)
    coeffs = _tensor_coefficients(g.values, dec.probs)
    # basis[u, c] = product over j in u of (c_j - p_j): a Kronecker product
    # with feature j as the outer factor of features below it
    basis = np.ones((1, 1))
    for p in dec.probs:
        basis = np.kron(np.array([[1.0, 1.0], [-p, 1.0 - p]]), basis)
    tables = coeffs[:, None] * basis
    tables[0] = dec.mean
    return tables


def shapley_effects_independent(a: AnovaDecomposition) -> Attribution:
    """Shapley allocation of the total variance: each variance component is
    shared equally by the coordinates it involves."""
    phi = _even_split(a.sigma2, a.d)
    return Attribution(phi=phi, total=a.total_variance, method="shapley-effects")
