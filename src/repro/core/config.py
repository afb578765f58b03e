"""Configuration of the TRS-Tree.

The paper (Section 4.5) exposes four user-facing parameters, reproduced here
with the same names and the same defaults used throughout its evaluation:
``node_fanout=8``, ``max_height=10``, ``outlier_ratio=0.1``, ``error_bound=2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TRSTreeConfig:
    """User-defined parameters of a TRS-Tree.

    Attributes:
        node_fanout: Number of equal-width children a node splits into when
            its linear model cannot cover enough of its tuples.
        max_height: Maximum depth of the tree (the root is at height 1).  At
            the maximum height a node keeps its model and absorbs all
            non-covered tuples into its outlier buffer instead of splitting.
        outlier_ratio: A node's linear model is rejected (and the node split)
            when more than ``outlier_ratio`` of its tuples fall outside the
            model's confidence band.
        error_bound: Expected number of host-column values covered by the
            range returned for a *point* query; controls the confidence
            interval epsilon of every leaf (see
            :func:`repro.core.regression.epsilon_for_host_span`).
        max_fp_ratio: Candidate-count-aware false-positive budget.  At build
            time each prospective leaf estimates the false-positive
            candidates its band drags in — band width x the leaf's own
            host-value density, so a leaf-spanning probe picks up
            ``estimated_fp = 2 * epsilon * covered / host_span`` extra
            candidates (see
            :func:`repro.core.regression.estimate_leaf_false_positives`).
            The leaf splits when ``estimated_fp / covered`` exceeds this
            ratio even if the plain outlier ratio passes; a leaf that
            exceeds it but cannot split (too few tuples, or at
            ``max_height``) is demoted to an exact outlier-only leaf
            instead of keeping a band that floods the host index.  The same
            budget bounds how far a noise-floor leaf's band may widen past
            the error-bound width (see
            :func:`repro.core.regression.select_leaf_model`).  ``inf``
            effectively disables the criterion (the pre-adaptive
            behaviour).
        sample_fraction: Optional sampling rate for the construction-time
            outlier pre-estimation optimisation (Appendix D.2).  ``None``
            disables sampling; ``0.05`` reproduces the paper's default of 5%.
        min_split_size: Nodes covering fewer tuples than this are never split
            (splitting a handful of tuples only adds structure overhead).
    """

    node_fanout: int = 8
    max_height: int = 10
    outlier_ratio: float = 0.1
    error_bound: float = 2.0
    max_fp_ratio: float = 0.5
    sample_fraction: float | None = None
    min_split_size: int = 32

    def __post_init__(self) -> None:
        if self.node_fanout < 2:
            raise ConfigurationError("node_fanout must be at least 2")
        if self.max_height < 1:
            raise ConfigurationError("max_height must be at least 1")
        if not (0.0 <= self.outlier_ratio <= 1.0):
            raise ConfigurationError("outlier_ratio must be in [0, 1]")
        if self.error_bound < 0:
            raise ConfigurationError("error_bound must be non-negative")
        if self.max_fp_ratio <= 0:
            raise ConfigurationError("max_fp_ratio must be positive")
        if self.sample_fraction is not None and not (0.0 < self.sample_fraction <= 1.0):
            raise ConfigurationError("sample_fraction must be in (0, 1]")
        if self.min_split_size < 2:
            raise ConfigurationError("min_split_size must be at least 2")


DEFAULT_CONFIG = TRSTreeConfig()
