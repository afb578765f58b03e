"""Unit tests for the adaptive leaf-model families and their selection.

The tentpole behaviour under test (see docs/architecture.md, "Adaptive leaf
models"): a TRS-Tree leaf whose error-bound line misses its coverage target
also fits a piecewise-linear candidate, keeps whichever needs the smaller
band at equal coverage, widens a noise-floor band only within the
``max_fp_ratio`` candidate budget, and demotes hopeless leaves to exact
outlier-only storage.
"""

import numpy as np
import pytest

from repro.core.config import TRSTreeConfig
from repro.core.regression import (
    LeafModel,
    LinearModel,
    ModelTable,
    OutlierOnlyModel,
    PiecewiseLinearModel,
    estimate_leaf_false_positives,
    select_leaf_model,
)
from repro.core.trs_tree import TRSTree
from repro.index.base import KeyRange


class TestPiecewiseLinearModel:
    def make_model(self, epsilon=0.5):
        # Two segments over [0, 10]: y = x on [0, 5), y = 2x - 5 on [5, 10].
        return PiecewiseLinearModel(
            bounds=(0.0, 5.0, 10.0), betas=(1.0, 2.0), alphas=(0.0, -5.0),
            epsilon=epsilon,
        )

    def test_predict_picks_the_right_segment(self):
        model = self.make_model()
        assert model.predict(2.0) == pytest.approx(2.0)
        assert model.predict(7.0) == pytest.approx(9.0)

    def test_boundary_value_routes_like_the_tree(self):
        model = self.make_model()
        # 5.0 belongs to the right-hand segment, matching route_indices.
        assert model.predict(5.0) == pytest.approx(5.0)

    def test_edge_segments_extrapolate(self):
        model = self.make_model()
        assert model.predict(-2.0) == pytest.approx(-2.0)
        assert model.predict(12.0) == pytest.approx(19.0)

    def test_covers_many_matches_scalar(self):
        model = self.make_model(epsilon=0.3)
        m = np.array([1.0, 4.9, 5.0, 9.0, 12.0])
        n = np.array([model.predict(float(v)) for v in m])
        n[1] += 1.0
        vectorised = list(model.covers_many(m, n))
        scalar = [model.covers(float(a), float(b)) for a, b in zip(m, n)]
        assert vectorised == scalar
        assert vectorised == [True, False, True, True, True]

    def test_host_range_covers_every_overlapped_segment(self):
        model = self.make_model(epsilon=0.5)
        host = model.host_range(KeyRange(3.0, 8.0))
        # Predictions along [3, 8] span [3, 11]; the band pads by 0.5.
        assert host.low <= 2.5
        assert host.high >= 11.5

    def test_host_range_point_probe(self):
        model = self.make_model(epsilon=0.5)
        host = model.host_range(KeyRange(7.0, 7.0))
        assert host.low <= 8.5 and host.high >= 9.5
        assert host.width < 1.1


class TestOutlierOnlyModel:
    def test_covers_nothing(self):
        model = OutlierOnlyModel()
        assert not model.covers(1.0, 0.0)
        assert not model.covers_many(np.array([1.0, 2.0]),
                                     np.array([0.0, 0.0])).any()

    def test_satisfies_protocol(self):
        for model in (OutlierOnlyModel(), LinearModel(1.0, 0.0, 0.1),
                      PiecewiseLinearModel((0.0, 1.0), (1.0,), (0.0,), 0.1)):
            assert isinstance(model, LeafModel)


class TestSelectLeafModel:
    def test_linear_data_takes_the_linear_fast_path(self):
        m = np.linspace(0.0, 100.0, 2000)
        n = 3.0 * m + 1.0
        model = select_leaf_model(m, n, KeyRange(0.0, 100.0), error_bound=2.0,
                                  trim_fraction=0.1, max_fp_ratio=0.5)
        assert isinstance(model, LinearModel)
        # Paper semantics preserved: epsilon straight from the error bound.
        assert model.epsilon == pytest.approx(3.0 * 100 * 2.0 / (2 * 2000))

    def test_curved_data_selects_piecewise_family(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(0.0, 10.0, size=4000)
        n = np.where(m < 5.0, 2.0 * m, 20.0 - 2.0 * m)  # tent: no line fits
        model = select_leaf_model(m, n, KeyRange(0.0, 10.0), error_bound=2.0,
                                  trim_fraction=0.1, max_fp_ratio=0.5)
        assert isinstance(model, PiecewiseLinearModel)
        assert model.covers_many(m, n).mean() >= 0.9

    def test_noise_floor_band_widens_within_budget(self):
        """Noise the segments cannot reduce widens the band instead of
        cascading futile splits."""
        rng = np.random.default_rng(2)
        m = rng.uniform(0.0, 100.0, size=4000)
        noise = rng.normal(0.0, 0.5, size=4000)
        n = 2.0 * m + noise
        model = select_leaf_model(m, n, KeyRange(0.0, 100.0), error_bound=2.0,
                                  trim_fraction=0.1, max_fp_ratio=0.5)
        error_bound_eps = 2.0 * 100 * 2.0 / (2 * 4000)  # 0.05 << noise
        assert model.epsilon > error_bound_eps
        assert model.covers_many(m, n).mean() >= 0.9
        # The widened band stays within the leaf-spanning candidate budget.
        covered = model.covers_many(m, n)
        estimated = estimate_leaf_false_positives(model, n[covered])
        assert estimated <= 0.5 * covered.sum() * 1.01

    def test_curvature_band_is_not_widened(self):
        """A reducible band must stay tight so the outlier criterion splits."""
        rng = np.random.default_rng(3)
        m = rng.uniform(0.0, 1000.0, size=4000)
        n = np.sqrt(m) * 100.0
        model = select_leaf_model(m, n, KeyRange(0.0, 1000.0), error_bound=2.0,
                                  trim_fraction=0.1, max_fp_ratio=0.5)
        # Far from covering: the piecewise dry run shows splitting helps, so
        # no widening happens and the tree will split this node instead.
        assert model.covers_many(m, n).mean() < 0.9


class TestFalsePositiveEstimate:
    def test_zero_for_empty_or_bandless(self):
        assert estimate_leaf_false_positives(LinearModel(1.0, 0.0, 0.0),
                                             np.array([1.0, 2.0])) == 0.0
        assert estimate_leaf_false_positives(LinearModel(1.0, 0.0, 1.0),
                                             np.array([])) == 0.0

    def test_band_width_times_density(self):
        covered_hosts = np.linspace(0.0, 100.0, 101)  # density ~1 per unit
        model = LinearModel(1.0, 0.0, 5.0)
        estimated = estimate_leaf_false_positives(model, covered_hosts)
        assert estimated == pytest.approx(2 * 5.0 * 101 / 100.0)


class TestTreeLevelAdaptivity:
    def test_log_shaped_data_splits_into_line_and_piecewise_leaves(self):
        """No leaf family is logarithmic: a log curve is curvature, which
        the tree serves by splitting, within the outlier ratio."""
        rng = np.random.default_rng(0)
        m = rng.uniform(1.0, 1000.0, size=4000)
        n = 50.0 * np.log1p(m - 1.0) + 7.0
        tree = TRSTree()
        tree.build(m, n, np.arange(4000))
        assert tree.num_leaves > 1
        assert {type(model) for model in tree._table.models} == {
            LinearModel, PiecewiseLinearModel}
        assert tree.num_outliers <= 0.1 * 4000

    def test_glitchy_tiny_leaves_are_demoted_not_banded(self):
        """A leaf whose best band floods the host index stores its tuples
        exactly instead (the OutlierOnlyModel demotion)."""
        rng = np.random.default_rng(4)
        # A tiny, glitch-dominated dataset below min_split_size: the fit is
        # dragged so the error-bound band is enormous relative to the data.
        m = np.array([1.0, 1.001, 1.002, 1.003, 1.004])
        n = np.array([10.0, 10.0, 10.0, 500.0, -500.0])
        tree = TRSTree(TRSTreeConfig(min_split_size=32))
        tree.build(m, n, np.arange(5))
        table = tree._table
        assert isinstance(table.models[0], OutlierOnlyModel)
        assert table.num_model_covered[0] == 0
        assert table.num_outliers[0] == tree.num_outliers == 5
        # Exact answers straight from the buffer, no host probe at all.
        result = tree.lookup(KeyRange(1.0, 1.004))
        assert result.host_ranges == []
        assert sorted(result.outlier_tids) == [0, 1, 2, 3, 4]
        del rng

    def test_estimated_fp_ratio_feeds_planner_prior(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0.0, 100.0, size=4000)
        n = 2.0 * m + rng.normal(0.0, 0.5, size=4000)
        tree = TRSTree()
        tree.build(m, n, np.arange(4000))
        ratio = tree.estimated_fp_ratio()
        assert ratio is not None
        assert 0.0 <= ratio < 1.0

    def test_empty_tree_has_no_estimate(self):
        tree = TRSTree()
        tree.build([], [], [])
        assert tree.estimated_fp_ratio() is None


@pytest.mark.parametrize("model", [
    LinearModel(beta=0.0, alpha=5.0, epsilon=1.0),
    PiecewiseLinearModel(bounds=(0.0, 5.0, 10.0), betas=(0.0, 0.0),
                         alphas=(5.0, 5.0), epsilon=1.0),
], ids=lambda model: type(model).__name__)
@pytest.mark.parametrize("bounds", [(-np.inf, 3.0), (3.0, np.inf),
                                    (-np.inf, np.inf)])
def test_flat_model_band_holds_under_unbounded_predicates(model, bounds):
    """A flat model predicts its intercept everywhere: a predicate open to
    ±inf probes its band (``0 * inf`` would be NaN, an empty probe), the
    scalar and batched translations alike."""
    scalar = model.host_range(KeyRange(*bounds))
    lows, highs = ModelTable([model]).host_ranges(
        np.zeros(1, dtype=np.int64), np.array([bounds[0]]),
        np.array([bounds[1]]))
    assert (scalar.low, scalar.high) == (lows[0], highs[0])
    assert scalar.low < 4.0 + 1e-9 and 6.0 - 1e-9 < scalar.high < 7.0
