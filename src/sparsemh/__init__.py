"""Mantel-Haenszel association indicators for sparse stratified 2x2 count data.

The package computes four summary indicators over stratified contingency
tables (the pooled row and column risk ratios, the pooled odds ratio, and
the group-vs-world weighted column risk ratio MHq), their log-scale variance
estimates and confidence intervals, and ships a reproducible Monte Carlo
harness that validates the variance estimators under column-binomial
sampling.

Every public name is listed once, under its submodule, in ``_EXPORTS``, and
loads that submodule on first use: ``import sparsemh`` alone imports neither
numpy nor any submodule, and analysis never pays for the Monte Carlo harness.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "estimators": (
        "IndicatorKind", "StratumRatios", "UndefinedIndicatorError", "mh_col_risk_ratio", "mh_odds_ratio",
        "mh_row_risk_ratio", "mhq", "stratum_ratios", "stratum_weights", "transpose", "world_comparison_row",
    ),
    "simulation": (
        "BinomialParams", "ExcessiveDropError", "InvalidDesignError", "SimulationDesign", "StudySummary",
        "bias_study", "convergence_study", "coverage_study", "var_bh_log_mhq_true", "var_skm_log_mhq_true",
    ),
    "tables": (
        "NoInformativeStrataError", "ParseError", "StratifiedDataset", "StratumTable", "filter_informative",
        "parse_csv", "parse_json",
    ),
    "variance": (
        "IndicatorEstimate", "VarianceMethod", "confidence_interval", "estimate_indicator", "var_gr_log_mhcr",
        "var_gr_log_mhrr", "var_rbg_log_mhor", "var_skm_log_mhq",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # import_module, not "from . import": that form would look the
    # submodule up on this package first and so call back into here
    submodule = importlib.import_module(f".{module}", __name__)
    return submodule if name == module else getattr(submodule, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
