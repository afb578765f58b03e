"""Comparator mechanisms: the conventional B+-tree secondary index and CM."""

from repro.baselines.correlation_maps import CorrelationMap
from repro.baselines.secondary import BaselineSecondaryIndex

__all__ = ["BaselineSecondaryIndex", "CorrelationMap"]
