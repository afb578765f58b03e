"""The rule catalogue.  Importing this package registers every rule.

See ``docs/static_analysis.md`` for the invariant each rule protects and
``repro.analysis.framework`` for how to add one.
"""

from repro.analysis.rules.broad_except import BroadExceptRationale
from repro.analysis.rules.durability_order import DurabilityOrdering
from repro.analysis.rules.epoch_static import EpochDiscipline
from repro.analysis.rules.hot_path import HotPathPurity
from repro.analysis.rules.result_cache_discipline import ResultCacheDiscipline
from repro.analysis.rules.sharding_protocol import ShardingProtocolHygiene

__all__ = [
    "BroadExceptRationale",
    "DurabilityOrdering",
    "EpochDiscipline",
    "HotPathPurity",
    "ResultCacheDiscipline",
    "ShardingProtocolHygiene",
]
