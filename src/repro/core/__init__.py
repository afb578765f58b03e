"""Hermit core: the TRS-Tree and the Hermit secondary-indexing mechanism."""

from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.hermit import HermitIndex
from repro.core.lookup import LookupBreakdown
from repro.core.regression import (
    LeafModel,
    LinearModel,
    LogLinearModel,
    OutlierOnlyModel,
    PiecewiseLinearModel,
    epsilon_for_error_bound,
    fit_leaf_model,
    fit_linear,
    select_leaf_model,
)
from repro.core.trs_tree import TRSLookupResult, TRSTree

__all__ = [
    "DEFAULT_CONFIG",
    "HermitIndex",
    "LeafModel",
    "LinearModel",
    "LogLinearModel",
    "LookupBreakdown",
    "OutlierOnlyModel",
    "PiecewiseLinearModel",
    "TRSLookupResult",
    "TRSTree",
    "TRSTreeConfig",
    "epsilon_for_error_bound",
    "fit_leaf_model",
    "fit_linear",
    "select_leaf_model",
]
