"""Independent oracles used to check the engines.

Everything in this file is deliberately naive: exhaustive permutation
enumeration and per-row python loops. None of it shares code with the
library, so agreement between the two is meaningful evidence. The
exceptions are not oracles: :func:`cohort` and :func:`dense` read one
target's match codes (``similarity_row``) the way the tests ask about
cohorts, :func:`ReferenceVarGame` averages the library's per-target cs2
games, :func:`lazy_cohort_game` scores a target's cohorts by the library's
lazy kernel at any d, :func:`scatter_permutation` shares the library's draw
of orders and its estimator but not its contraction, :func:`chosen_masks`
reads the library's mask choice, and :class:`LoggingModel` is an external
model that records what each of its processes received. The artifact
encoders at the end are the library's former writers, kept as references
for its template writers.
"""

import csv
import itertools
import json
import math
import sys

import numpy as np

from cohortshap import (
    AbsoluteThreshold,
    ExternalCommand,
    Identity,
    LinearModel,
    RelativeThreshold,
    make_game,
)
from cohortshap.games import Game
from cohortshap.shapley import (
    Attribution,
    _mask_choice,
    permutation_masks,
    shapley_from_orders,
)
from cohortshap.similarity import cohort_values, in_cohort, subset_int


def cohort(codes, u, d):
    """Boolean membership of cohort u (a bitmask or feature indices) in one
    target's match codes: everyone for the empty set."""
    return in_cohort(codes, subset_int(u, d))


def dense(codes, d):
    """(n, d) boolean indicators: bit j of each subject's match code."""
    return (codes[:, None] >> np.arange(d) & 1).astype(bool)


def ReferenceVarGame(ds, rules):
    """The var game by its definition: at each mask, the mean over subjects
    of their cs2 games' values (:func:`make_game`). It shares no sweep with
    the library, only the per-target games."""
    cs2 = [make_game("cs2", ds, t, rules) for t in range(ds.n)]

    def evaluate(masks):
        return np.mean([game.values(masks) for game in cs2], axis=0)

    return Game(ds.d, "var", evaluate=evaluate)


def lazy_cohort_game(ds, method, t, codes):
    """The cohort game of ``method`` for target t from its match ``codes``,
    scored per call by the lazy kernel (:func:`similarity.cohort_values`) at
    any d, so it can be set against the dense table up to the cap."""

    def evaluate(masks):
        return cohort_values(codes[None], ds.y, masks, method != "cs")[0]

    return Game(ds.d, method, t, evaluate=evaluate)


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


def scalar_match_codes(X, resolved, points):
    """(points, subjects) int64 match codes, one Python-float test per
    (point, subject, feature): bit j is set when the subject is close to
    the point on feature j under rule j (identity, absolute or relative)."""
    codes = np.zeros((len(points), len(X)), dtype=np.int64)
    for p, point in enumerate(points):
        for i, row in enumerate(X):
            code = 0
            for j, rule in enumerate(resolved):
                x, c = float(row[j]), float(point[j])
                if isinstance(rule, Identity):
                    close = x == c
                elif isinstance(rule, AbsoluteThreshold):
                    close = abs(x - c) <= rule.delta
                else:
                    assert isinstance(rule, RelativeThreshold)
                    close = abs(x - c) <= rule.delta * abs(c)
                code |= int(close) << j
            codes[p, i] = code
    return codes


def int64_count_tables(codes, y, d, squared):
    """The tables of ``similarity.cohort_value_tables`` with every count kept
    in bincount's int64: the same histograms, the same superset-sum order,
    written out here, so the floats are bit for bit the library's whatever
    the library's count type."""
    codes = np.asarray(codes, dtype=np.int64)
    cols = math.prod(codes.shape[:-1])
    index = (codes.reshape(cols, -1).T * cols + np.arange(cols)).ravel()
    counts = np.bincount(index, minlength=cols << d).reshape(1 << d, cols)
    sums = np.bincount(index, weights=np.repeat(y, cols), minlength=cols << d)
    sums = sums.reshape(1 << d, cols)
    for table in (counts, sums):
        for j in range(d):
            pairs = table.reshape(1 << (d - 1 - j), 2, 1 << j, cols)
            pairs[:, 0] += pairs[:, 1]
    means = sums / counts
    means -= means[0].copy()
    if squared:
        means *= means
    means[0] = 0.0
    return means.reshape((1 << d, *codes.shape[:-1]))


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


def plain_lattice_transform(table, d, kind):
    """A copy of ``table`` (2^d,) or (2^d, columns) after the library's
    in-place lattice transform ``kind`` done as plain passes: for each bit
    j, over the views of the sets without j (lo) and with j (hi),
    ``lo += hi`` ("superset"), ``hi += lo`` ("subset") or ``hi -= lo``
    ("mobius")."""
    table = table.copy()
    for j in range(d):
        v = table.reshape(1 << (d - 1 - j), 2, 1 << j, *table.shape[1:])
        lo, hi = v[:, 0], v[:, 1]
        if kind == "superset":
            lo += hi
        elif kind == "subset":
            hi += lo
        else:
            hi -= lo
    return table


def per_bit_gather_contraction(tables, d):
    """(B, d) exact Shapley rows of lattice-major ``tables`` (2^d, B) as the
    library computed them before it built one weight vector a call: each
    bit's weights gathered from the popcounts of its sets without j, then
    one GEMV of them with the (2^(d-1), B) increments."""
    tables = np.ascontiguousarray(tables).reshape(1 << d, -1)
    w = np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)])
    sizes = np.bitwise_count(np.arange(1 << d, dtype=np.uint32)).astype(np.int64)
    phi = np.empty((tables.shape[1], d))
    increments = np.empty((1 << (d - 1), tables.shape[1]))
    for j in range(d):
        v = tables.reshape(1 << (d - 1 - j), 2, 1 << j, tables.shape[1])
        lo, hi = v[:, 0], v[:, 1]
        weights = w[sizes.reshape(1 << (d - 1 - j), 2, 1 << j)[:, 0]].reshape(-1)
        np.subtract(hi, lo, out=increments.reshape(lo.shape))
        phi[:, j] = weights @ increments
    return phi


def scatter_permutation(game, m, seed):
    """The Monte Carlo estimate of ``game`` on m orders of the library's
    draw, as the library computed it before single games went through the
    sweep's contraction: every coalition along every order asked of the
    game in one call, one subtract along each order, and one flat-index
    assignment that scatters each increment to the feature arriving with
    it. It shares the draw and the estimator with the library, not the
    distinct masks, arrival rows or gathers of its contraction."""
    perms, masks = permutation_masks(game.d, m, seed)
    values = game.values(masks.reshape(-1)).reshape(masks.shape)
    samples = np.empty((*perms.shape, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        increments = values[:, 1:] - values[:, :-1]
        totals = values[0, -1:] - values[0, :1]
    slots = (perms + game.d * np.arange(m)[:, None]).reshape(-1)
    samples.reshape(-1)[slots] = increments.reshape(-1)
    return shapley_from_orders(samples, totals, game.method, [game.target])[0]


def reference_shapley(game, engine, m, seed):
    """The attribution of ``game`` by code the library's contraction does not
    share: :func:`scatter_permutation` under "mc", and under "exact"
    :func:`per_bit_gather_contraction` of the game's value table, whose
    total is its last value less its first."""
    if engine == "mc":
        return scatter_permutation(game, m, seed)
    table = game.value_table()
    phi = per_bit_gather_contraction(table, game.d)[0]
    total = float(table[-1] - table[0])
    return Attribution(phi=phi, total=total, method=game.method, target=game.target)


def chosen_masks(d, engine, m, seed):
    """The sorted nonempty masks a sweep reads under ``engine``: those of
    the library's mask choice, or every nonempty set where it returns None."""
    masks, _ = _mask_choice(d, engine, m, seed)
    return np.arange(1, 1 << d, dtype=np.int64) if masks is None else masks


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


def naive_baseline_value(f, x_t, baselines, u, squared):
    """One baseline-game value by a per-point loop: the mean over baseline
    rows b of f(hybrid) - f(b), squared when asked, where the hybrid takes
    ``x_t`` on the features in bitmask u and b elsewhere. ``f`` maps a list
    of d floats to a float."""
    total = 0.0
    for b in baselines:
        hybrid = [x_t[j] if u >> j & 1 else b[j] for j in range(len(b))]
        diff = f(hybrid) - f(list(b))
        total += diff * diff if squared else diff
    return total / len(baselines)


def naive_realism_split(f, x_t, baselines, squared, realistic):
    """(phi_realistic, phi_unrealistic) of a baseline game by a loop over
    every baseline row b, feature j and subset s without j: the increment
    w(|s|) * (g_b(s + j) - g_b(s)) / k, with g_b the f-difference of the
    hybrid at b (squared when asked) and w the Shapley weight, is realistic
    when ``realistic`` accepts both hybrids."""
    d, k = len(x_t), len(baselines)
    phi_r, phi_u = np.zeros(d), np.zeros(d)
    for b in baselines:
        points = [
            [x_t[j] if u >> j & 1 else b[j] for j in range(d)] for u in range(1 << d)
        ]
        ok = [realistic(point) for point in points]
        g = []
        for point in points:
            diff = f(point) - f(list(b))
            g.append(diff * diff if squared else diff)
        for j in range(d):
            for s in range(1 << d):
                if s >> j & 1:
                    continue
                size = bin(s).count("1")
                w = math.factorial(size) * math.factorial(d - 1 - size)
                term = w / math.factorial(d) * (g[s | 1 << j] - g[s]) / k
                if ok[s] and ok[s | 1 << j]:
                    phi_r[j] += term
                else:
                    phi_u[j] += term
    return phi_r, phi_u


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


LOGGING_SCRIPT = (
    "import os, sys\n"
    "log, fail = sys.argv[1], int(sys.argv[2])\n"
    "coef = [float(c) for c in sys.argv[3:]]\n"
    "text = sys.stdin.read()\n"
    "spawn = len(os.listdir(log))\n"
    "with open(os.path.join(log, str(spawn) + '.csv'), 'w') as fh:\n"
    "    fh.write(text)\n"
    "if spawn == fail:\n"
    "    sys.exit(3)\n"
    "for line in text.splitlines():\n"
    "    print(repr(sum(c * float(v) for c, v in zip(coef, line.split(',')))))\n"
)


class LoggingModel:
    """An external linear model whose child keeps what each spawn received;
    the spawn numbered ``fail`` (from 0) exits 3 after logging."""

    def __init__(self, tmp_path, coef, fail=-1):
        script = tmp_path / "logging_model.py"
        script.write_text(LOGGING_SCRIPT, encoding="utf-8")
        self.log = tmp_path / "calls"
        self.log.mkdir()
        self.model = ExternalCommand(
            (sys.executable, str(script), str(self.log), str(fail), *map(repr, coef))
        )
        self.linear = LinearModel(tuple(coef))

    def received(self) -> list[str]:
        return [(self.log / f"{i}.csv").read_text() for i in range(self.spawns)]

    @property
    def spawns(self) -> int:
        return len(list(self.log.iterdir()))


def points_csv(points) -> str:
    """The per-value formatter the external protocol is defined by."""
    lines = [",".join(repr(float(v)) for v in row) for row in points]
    return "\n".join(lines) + "\n"


def _json_ready(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def reference_json(path, payload) -> None:
    """The JSON artifact encoder the template writer must equal byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_ready)
        fh.write("\n")


def reference_named(names, values) -> dict:
    return {name: float(v) for name, v in zip(names, values)}


def reference_attribution_payload(att, names) -> dict:
    """One attribution as the dict the reference encoder writes."""
    payload = {"method": att.method}
    if att.target is not None:
        payload["target"] = att.target
    payload["phi"] = reference_named(names, att.phi)
    payload["total"] = float(att.total)
    if att.stderr is not None:
        payload["stderr"] = reference_named(names, att.stderr)
    if att.permutations_used is not None:
        payload["permutations"] = att.permutations_used
    return payload


def reference_split_payload(split, names) -> dict:
    return {
        "method": split.method,
        "target": split.target,
        "phi_realistic": reference_named(names, split.phi_realistic),
        "phi_unrealistic": reference_named(names, split.phi_unrealistic),
        "phi": reference_named(names, split.phi),
    }


def reference_panel_csv(panel, path) -> None:
    """The panel CSV encoder, one :mod:`csv` row of ``repr`` cells a subject."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "subject", *panel.feature_names, "overlay"])
        for rank, subject in enumerate(panel.ordering):
            writer.writerow(
                [
                    rank,
                    int(subject),
                    *(repr(float(v)) for v in panel.bars[subject]),
                    repr(float(panel.overlay[subject])),
                ]
            )


def reference_rows(columns, newline, path) -> None:
    """CSV lines of text and number cells by :mod:`csv`: a text cell as it
    is, an int by ``str``, a float by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        for row in zip(*columns):
            writer.writerow([
                cell if isinstance(cell, str)
                else repr(float(cell)) if isinstance(cell, np.floating) else int(cell)
                for cell in row
            ])


def reference_per_subject_csv(names, rows, path) -> None:
    """The per-subject squared cohort rows, one ``repr`` join a subject,
    under a header of :mod:`csv` cells."""
    with open(path, "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["subject", *names])
        for t in range(len(rows)):
            row = ",".join(repr(float(v)) for v in rows[t])
            fh.write(f"{t},{row}\n")


def reference_realism_csv(report, path) -> None:
    """The realism curve encoder, one :mod:`csv` row of ``repr`` cells a scale
    and source."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "source", "fraction", "rate"])
        for si, scale in enumerate(report.thresholds):
            writer.writerow(
                [repr(float(scale)), "marginal", "", repr(float(report.marginal_rates[si]))]
            )
            for fi, frac in enumerate(report.fractions):
                writer.writerow(
                    [
                        repr(float(scale)),
                        "holdout",
                        repr(float(frac)),
                        repr(float(report.holdout_rates[si, fi])),
                    ]
                )
