"""Variable importance for black-box predictors on observed data.

Local attributions (cohort, baseline, all-baseline Shapley and their squared
versions), the global variance Shapley they aggregate into, binary-cube
decomposition machinery, and a realism audit of synthetic-point methods.
:func:`local_attributions` gives every per-target result, and with
:func:`make_panel` every panel. The single-game API, :func:`similarity_row`,
:func:`make_cs_game`, :func:`shapley_exact` and :func:`shapley_permutation`
over one target's cs game, is the benchmark's explain path.
"""

from .aggregate import (
    Panel,
    aggregate_squared_cs,
    local_attributions,
    make_panel,
    variance_shapley,
    write_panel_csv,
)
from .audit import (
    RealismReport,
    SplitAttribution,
    is_realistic,
    realism_curve,
    realism_splits,
    sample_marginal_product,
    write_realism_csv,
)
from .cube import (
    AnovaDecomposition,
    CubeDecomposition,
    CubeFunction,
    anchored_cube,
    anova_cube,
    anova_effect_tables,
    reconstruct_cube,
    shapley_effects_independent,
    shapley_from_anchored,
)
from .dataset import (
    ColumnSchema,
    Dataset,
    DatasetError,
    attach_predictions,
    load_csv,
    quantile,
    schema_from_json,
    split_holdout,
)
from .games import EXACT_CAP, make_cs_game
from .models import (
    ConvergenceError,
    ExternalCommand,
    LinearModel,
    LogisticModel,
    ModelError,
    PerfectSeparationError,
    fit_logistic,
    predict,
)
from .shapley import (
    Attribution,
    shapley_exact,
    shapley_permutation,
    shapley_weight_table,
)
from .similarity import (
    AbsoluteThreshold,
    Identity,
    RangeFraction,
    RelativeThreshold,
    SimilarityError,
    resolve_rules,
    scale_rules,
    similarity_row,
)

__version__ = "0.1.0"
