"""Cohort refinement on a tiny full factorial, step by step.

Eight subjects, three binary predictors, predictions y = 2*x1 + x2. We pick
the all-ones subject as the target and watch the cohorts shrink as we refine
on more predictors, then split the target's deviation from the grand mean
with the exact Shapley engine.
"""

import itertools

import numpy as np

from cohortshap import (
    ColumnSchema,
    Dataset,
    Identity,
    attach_predictions,
    local_attributions,
    similarity_row,
)
from cohortshap.similarity import in_cohort

X = np.array(list(itertools.product([0, 1], repeat=3)), dtype=float)[:, ::-1]
y = 2.0 * X[:, 0] + X[:, 1]
schema = tuple(ColumnSchema(f"x{j+1}", "binary") for j in range(3))
ds = attach_predictions(Dataset(schema=schema, X=X), y)

target = int(np.where((X == 1).all(axis=1))[0][0])
print(f"target subject {target}: x = {X[target]}, prediction = {y[target]}")
print(f"grand mean prediction: {y.mean()}")

# Identity similarity: a subject is close on a predictor iff it matches the
# target's value exactly. Each subject's match code has bit j set when it is
# close on predictor j; row `target` of the matrix is all ones by
# construction.
rules = [Identity()] * 3
codes = similarity_row(rules, ds, target)
print("\nsimilarity matrix (subjects x predictors):")
print(codes[:, None] >> np.arange(3) & 1)

# Cohorts for growing predictor sets. Refining can only shrink the cohort,
# and the target never leaves it.
print("\ncohort sizes and means while refining:")
for u in ([], [0], [0, 1], [0, 1, 2]):
    members = in_cohort(codes, sum(1 << j for j in u))
    print(
        f"  refined on {u or '{}'}: {members.sum()} subjects, "
        f"mean prediction {ds.y[members].mean():.3f}"
    )

# The cohort game values the set u by how far the refined cohort mean has
# moved from the grand mean; the exact engine splits the total movement.
(att,) = local_attributions(ds, "cs", [target], rules)
print(f"\ncohort Shapley: phi = {att.phi}, total = {att.total}")

# The squared variant values movement regardless of sign; it is the
# subject-level share of the variance decomposition that
# cohortshap.variance_shapley aggregates over all subjects.
(att2,) = local_attributions(ds, "cs2", [target], rules)
print(f"squared cohort Shapley: phi = {att2.phi}, total = {att2.total}")
