"""Mantel-Haenszel association indicators for sparse stratified 2x2 count data.

The package computes four summary indicators over stratified contingency
tables (the pooled row and column risk ratios, the pooled odds ratio, and
the group-vs-world weighted column risk ratio MHq), their log-scale variance
estimates and confidence intervals, and ships a reproducible Monte Carlo
harness that validates the variance estimators under column-binomial
sampling.

The simulation names (``bias_study``, ``SimulationDesign``, ...) are loaded
from :mod:`sparsemh.simulation` on first use, so analysis alone never pays
for importing the Monte Carlo harness.
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
    NoInformativeStrataError,
    ParseError,
    StratifiedDataset,
    StratumTable,
    filter_informative,
    parse_csv,
    parse_json,
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

__all__ = [
    "__version__",
    "BinomialParams",
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
    "convergence_study",
    "coverage_study",
    "draw_p1",
    "estimate_indicator",
    "filter_informative",
    "katz_var_log_rr",
    "mh_col_risk_ratio",
    "mh_odds_ratio",
    "mh_row_risk_ratio",
    "mhq",
    "parse_csv",
    "parse_json",
    "stratum_ratios",
    "stratum_weights",
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

# resolved by __getattr__ on first use
_SIMULATION_NAMES = frozenset({
    "ExcessiveDropError",
    "InvalidDesignError",
    "SimulationDesign",
    "StudySummary",
    "bias_study",
    "convergence_check",
    "convergence_study",
    "coverage_study",
    "draw_p1",
})


def __getattr__(name: str):
    if name == "simulation" or name in _SIMULATION_NAMES:
        import importlib

        # import_module, not "from . import": that form would look the
        # submodule up on this package first and so call back into here
        simulation = importlib.import_module(".simulation", __name__)
        return simulation if name == "simulation" else getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATION_NAMES)
