"""Variable importance for black-box predictors on observed data.

Local attributions (cohort, baseline, all-baseline Shapley and their squared
versions), the global variance Shapley they aggregate into, binary-cube
decomposition machinery, and a realism audit of synthetic-point methods.
"""

from .aggregate import (
    Panel,
    aggregate_squared_cs,
    export_panel,
    local_attributions,
    variance_shapley,
    write_panel_csv,
)
from .audit import (
    RealismReport,
    RealismVerdict,
    SplitAttribution,
    bs_realism_split,
    is_realistic,
    realism_curve,
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
    write_csv,
)
from .games import (
    EXACT_CAP,
    BaselinePoint,
    Game,
    TableGame,
    make_abs2_game,
    make_abs_game,
    make_bs2_game,
    make_bs_game,
    make_cs2_game,
    make_cs_game,
    make_game,
    make_var_game,
)
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
    shapley_engine,
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
    SimilarityMatrix,
    resolve_rules,
    scale_rules,
    similarity_row,
)

__version__ = "0.1.0"
