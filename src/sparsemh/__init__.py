"""Mantel-Haenszel association indicators for sparse stratified 2x2 count data.

The package computes four summary indicators over stratified contingency
tables (the pooled row and column risk ratios, the pooled odds ratio, and
the group-vs-world weighted column risk ratio MHq), their log-scale variance
estimates and confidence intervals, and ships a reproducible Monte Carlo
harness that validates the variance estimators under column-binomial
sampling.
"""

__version__ = "0.1.0"

from .estimators import (
    IndicatorKind,
    StratumRatios,
    UndefinedIndicatorError,
    mh_col_risk_ratio,
    mh_odds_ratio,
    mh_row_risk_ratio,
    mhq,
    stratum_ratios,
    stratum_weights,
    transpose,
    world_comparison_row,
)
from .tables import (
    CrossTableRow,
    NoInformativeStrataError,
    ParseError,
    StratifiedDataset,
    StratumTable,
    filter_informative,
    from_cross_table,
    parse_csv,
    parse_json,
    serialize_csv,
    serialize_json,
    to_cross_table,
)
from .variance import (
    BinomialParams,
    IndicatorEstimate,
    VarianceMethod,
    confidence_interval,
    estimate_indicator,
    katz_var_log_rr,
    var_bh_log_mhq,
    var_bh_log_mhq_true,
    var_gr_log_mhcr,
    var_gr_log_mhrr,
    var_rbg_log_mhor,
    var_skm_log_mhq,
    var_skm_log_mhq_true,
)
from .simulation import (
    ExcessiveDropError,
    InvalidDesignError,
    SimulationDesign,
    StudySummary,
    bias_study,
    convergence_check,
    coverage_study,
    draw_p1,
    generate_dataset,
    ground_truth_sd,
)

__all__ = [
    "__version__",
    "BinomialParams",
    "CrossTableRow",
    "ExcessiveDropError",
    "IndicatorEstimate",
    "IndicatorKind",
    "InvalidDesignError",
    "NoInformativeStrataError",
    "ParseError",
    "SimulationDesign",
    "StratifiedDataset",
    "StratumRatios",
    "StratumTable",
    "StudySummary",
    "UndefinedIndicatorError",
    "VarianceMethod",
    "bias_study",
    "confidence_interval",
    "convergence_check",
    "coverage_study",
    "draw_p1",
    "estimate_indicator",
    "filter_informative",
    "from_cross_table",
    "generate_dataset",
    "ground_truth_sd",
    "katz_var_log_rr",
    "mh_col_risk_ratio",
    "mh_odds_ratio",
    "mh_row_risk_ratio",
    "mhq",
    "parse_csv",
    "parse_json",
    "serialize_csv",
    "serialize_json",
    "stratum_ratios",
    "stratum_weights",
    "to_cross_table",
    "transpose",
    "var_bh_log_mhq",
    "var_bh_log_mhq_true",
    "var_gr_log_mhcr",
    "var_gr_log_mhrr",
    "var_rbg_log_mhor",
    "var_skm_log_mhq",
    "var_skm_log_mhq_true",
    "world_comparison_row",
]
