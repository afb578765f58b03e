"""Hermit core: the TRS-Tree and the Hermit secondary-indexing mechanism."""

from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.hermit import HermitIndex
from repro.core.lookup import LookupBreakdown
from repro.core.regression import (
    LeafModel,
    LinearModel,
    OutlierOnlyModel,
    PiecewiseLinearModel,
    fit_linear,
    select_leaf_model,
)
from repro.core.trs_tree import TRSLookupResult, TRSTree

__all__ = [
    "DEFAULT_CONFIG",
    "HermitIndex",
    "LeafModel",
    "LinearModel",
    "LookupBreakdown",
    "OutlierOnlyModel",
    "PiecewiseLinearModel",
    "TRSLookupResult",
    "TRSTree",
    "TRSTreeConfig",
    "fit_linear",
    "select_leaf_model",
]
