"""Leaf-model machinery used by TRS-Tree leaf nodes.

Each leaf models the host column ``N`` as an approximate function of the
target column ``M`` over the leaf's sub-range ``r`` with a constant-width
confidence band::

    n = f(m) +/- epsilon

The paper's model (Section 4.1) is linear, ``f(m) = beta * m + alpha``, with
``beta``/``alpha`` from a one-pass ordinary-least-squares fit and ``epsilon``
derived from the user's ``error_bound`` (Section 4.5).  On non-linear
correlations (the Sensor workload's power-law responses) a fixed linear band
either misses most tuples or, worse, balloons ``epsilon`` until a single leaf
probe drags in a large slice of the host domain as false positives.  This
module therefore supports *adaptive* leaf modeling: a leaf whose error-bound
band misses its coverage target fits a small piecewise-linear model beside
the line and keeps whichever needs the smallest band to cover the same
fraction of its tuples (equal-coverage band-area minimisation); a leaf no
band serves is demoted to exact outlier-only storage.  All models satisfy
the :class:`LeafModel` protocol, so the tree, the insert/lookup paths and
Hermit's false-positive accounting stay model-agnostic.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.index.base import KeyRange
from repro.segments import bound_positions, group_order


@runtime_checkable
class LeafModel(Protocol):
    """The surface every TRS-Tree leaf model exposes.

    A leaf model is a fitted mapping from target values to host values plus a
    constant confidence half-width ``epsilon``.  The tree only ever talks to
    this protocol — concrete families (linear, piecewise-linear,
    outlier-only) are interchangeable.
    """

    epsilon: float

    def predict(self, m: float) -> float:
        """Predicted host value for target value ``m``."""
        ...

    def covers(self, m: float, n: float) -> bool:
        """Whether ``(m, n)`` lies inside the confidence band."""
        ...

    def covers_many(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`covers`."""
        ...

    def host_range(self, target_range: KeyRange) -> KeyRange:
        """Host-column range covering all predictions over ``target_range``.

        :class:`ModelTable` is the batched form (across models and
        ranges), bit-identical to this one.
        """
        ...


@dataclass(frozen=True)
class LinearModel:
    """A fitted leaf model ``n = beta * m + alpha +/- epsilon``."""

    beta: float
    alpha: float
    epsilon: float

    def predict(self, m: float) -> float:
        """Predicted host value for target value ``m``."""
        return self.beta * m + self.alpha

    def covers(self, m: float, n: float) -> bool:
        """Whether ``(m, n)`` lies inside the confidence band."""
        return abs(n - self.predict(m)) <= self.epsilon

    def covers_many(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`covers`."""
        return np.abs(n - (self.beta * m + self.alpha)) <= self.epsilon

    def host_range(self, target_range: KeyRange) -> KeyRange:
        """Host-column range covering all predictions over ``target_range``.

        Handles both slope signs: for a negative slope the predicted endpoints
        swap, exactly as Algorithm 2 describes.
        """
        lo = slope_times(self.beta, target_range.low) + self.alpha
        hi = slope_times(self.beta, target_range.high) + self.alpha
        if lo > hi:
            lo, hi = hi, lo
        return band_range(lo, hi, self.epsilon)


@dataclass(frozen=True)
class PiecewiseLinearModel:
    """An equal-width piecewise-linear leaf model with one shared band.

    The leaf's target sub-range is split into ``len(betas)`` equal-width
    segments, each carrying its own OLS line; one ``epsilon`` bounds the band
    of every segment so the band *area* stays directly comparable with the
    single-line families.  The first and last segments extrapolate beyond the
    fitted range, mirroring the edge behaviour of the other models.
    """

    bounds: tuple[float, ...]
    betas: tuple[float, ...]
    alphas: tuple[float, ...]
    epsilon: float

    @property
    def num_segments(self) -> int:
        """Number of linear segments."""
        return len(self.betas)

    def _segment(self, m: float) -> int:
        # Comparisons against the stored bounds — the same partition the
        # fitting step used (piecewise_segment_indices).  A boundary value
        # must be scored by the segment it was fitted into, or coverage
        # drifts off the band quantile by a tuple and knife-edge split
        # decisions flip; a boundary value belongs to the right-hand
        # segment, like the tree's child routing.
        return bisect.bisect_right(self.bounds, m, 1, self.num_segments) - 1

    def predict(self, m: float) -> float:
        """Predicted host value for target value ``m``."""
        segment = self._segment(m)
        return self.betas[segment] * m + self.alphas[segment]

    def covers(self, m: float, n: float) -> bool:
        """Whether ``(m, n)`` lies inside the confidence band."""
        return abs(n - self.predict(m)) <= self.epsilon

    def covers_many(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`covers`."""
        m = np.asarray(m, dtype=np.float64)
        segments = piecewise_segment_indices(m, self.bounds)
        betas = np.asarray(self.betas)[segments]
        alphas = np.asarray(self.alphas)[segments]
        return np.abs(n - (betas * m + alphas)) <= self.epsilon

    def host_range(self, target_range: KeyRange) -> KeyRange:
        """Host-column range covering all predictions over ``target_range``.

        Each segment is linear, so its extremes over the clipped overlap are
        at the overlap endpoints; the answer is the min/max over every
        overlapped segment, padded by ``epsilon``.  Independently fitted
        segments may be discontinuous at the boundaries — evaluating both
        sides of every interior boundary keeps the range a superset of all
        predictions.
        """
        first = self._segment(target_range.low)
        last = self._segment(target_range.high)
        lo = math.inf
        hi = -math.inf
        for segment in range(first, last + 1):
            seg_lo = target_range.low if segment == first \
                else self.bounds[segment]
            seg_hi = target_range.high if segment == last \
                else self.bounds[segment + 1]
            for m in (seg_lo, seg_hi):
                predicted = (slope_times(self.betas[segment], m)
                             + self.alphas[segment])
                lo = min(lo, predicted)
                hi = max(hi, predicted)
        return band_range(lo, hi, self.epsilon)


@dataclass(frozen=True)
class OutlierOnlyModel:
    """A degenerate model covering nothing: the leaf stores tuples exactly.

    Chosen when even the best candidate band would drag in more estimated
    false positives than ``max_fp_ratio`` allows *and* the node cannot split
    (too few tuples, or at ``max_height``).  Every tuple lands in the leaf's
    outlier buffer, lookups answer from the buffer alone, and the leaf emits
    no host range at all — the exact-but-buffered extreme the paper
    describes for ``error_bound = 0``.
    """

    epsilon: float = 0.0

    def predict(self, m: float) -> float:
        """No prediction: the band is empty."""
        return 0.0

    def covers(self, m: float, n: float) -> bool:
        """Never covers — every tuple is an outlier."""
        return False

    def covers_many(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`covers` (all False)."""
        return np.zeros(len(m), dtype=bool)

    def host_range(self, target_range: KeyRange) -> KeyRange:
        """Empty-band host range; never emitted (the leaf covers no tuple)."""
        return KeyRange(0.0, 0.0)


def slope_times(beta: float, m: float) -> float:
    """``beta * m``, except that a zero slope gives 0 even at an unbounded
    ``m`` (IEEE ``0 * inf`` is NaN).

    A flat model predicts its intercept everywhere, so a predicate open to
    ±inf must still probe its band; for finite ``m`` this is ``beta * m``.
    """
    return beta * m if beta else 0.0


def slope_times_many(beta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Vectorised :func:`slope_times` over equal-shape arrays."""
    return beta * np.where(beta == 0.0, 0.0, m)


# Outward rounding pad of a band, relative to its largest operand.
_BAND_PAD = 4.0 * float(np.finfo(np.float64).eps)


def band_range(lo: float, hi: float, epsilon: float) -> KeyRange:
    """The host range ``[lo - epsilon, hi + epsilon]``, rounding-padded.

    ``covers`` tests ``|n - predict(m)| <= epsilon`` while ``host_range``
    computes ``predict(m) +/- epsilon`` — two float expressions of the same
    real interval.  A tuple sitting exactly on the band edge (which the
    equal-coverage band construction makes routine: the chosen epsilon *is*
    one of the residuals) can satisfy the first while ``predict + epsilon``
    rounds below its host value, silently dropping it from the probe; under
    cancellation (``predict ~ -128``, ``epsilon ~ 131``, edge ~ 3) the gap
    reaches many ulps *of the result*, so the pad must scale with the
    operands, not the result.  Validation removes the sliver of extra host
    values the padding could admit.  An infinite operand takes no pad: the
    bound it produces is already infinite, and ``inf - inf`` is not a bound.
    """
    scale = max(abs(lo), abs(hi), epsilon)
    pad = _BAND_PAD * scale if scale < np.inf else 0.0
    return KeyRange(lo - epsilon - pad, hi + epsilon + pad)


def band_range_many(lo: np.ndarray, hi: np.ndarray,
                    epsilon: "float | np.ndarray",
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`band_range` — identical float expressions per element,
    so the batched translation path emits bitwise-identical host bounds.
    """
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), epsilon)
    pad = np.where(scale < np.inf, _BAND_PAD * scale, 0.0)
    return lo - epsilon - pad, hi + epsilon + pad


class ModelTable:
    """The coefficients of a sequence of leaf models, as arrays.

    The batched form of :meth:`LeafModel.host_range` *across models*:
    :meth:`host_ranges` evaluates range ``i`` under model ``index[i]`` with
    one array pass per model family present, in the float expressions of
    the scalar methods, so both emit bitwise-identical bounds.  A
    :class:`PiecewiseLinearModel` contributes one row of the segment
    tables (``+inf``-padded knots, per-segment lines, and the smaller and
    larger of the two lines' predictions at every knot).
    """

    __slots__ = ("family", "families", "beta", "alpha", "epsilon",
                 "piece_row", "piece_segments", "knots", "piece_betas",
                 "piece_alphas", "knot_lows", "knot_highs")

    _FAMILIES = (LinearModel, PiecewiseLinearModel, OutlierOnlyModel)
    _LINEAR, _PIECEWISE, _OUTLIER_ONLY = range(3)

    def __init__(self, models: Sequence[LeafModel]) -> None:
        family = [self._FAMILIES.index(type(model)) for model in models]
        self.family = np.asarray(family, dtype=np.int8)
        self.families = tuple(sorted(set(family) - {self._OUTLIER_ONLY}))
        single = [model if kind == self._LINEAR else None
                  for kind, model in zip(family, models)]
        self.beta, self.alpha = (
            np.asarray([getattr(model, name, 0.0) for model in single],
                       dtype=np.float64)
            for name in ("beta", "alpha"))
        self.epsilon = np.asarray([model.epsilon for model in models],
                                  dtype=np.float64)
        pieces = [model for kind, model in zip(family, models)
                  if kind == self._PIECEWISE]
        self.piece_row = np.cumsum(self.family == self._PIECEWISE) - 1
        self.piece_segments = np.asarray(
            [model.num_segments for model in pieces], dtype=np.int64)
        width = int(self.piece_segments.max(initial=1))
        self.knots = np.full((len(pieces), width - 1), np.inf)
        self.knot_lows = np.full((len(pieces), width - 1), np.inf)
        self.knot_highs = np.full((len(pieces), width - 1), -np.inf)
        self.piece_betas = np.zeros((len(pieces), width))
        self.piece_alphas = np.zeros((len(pieces), width))
        for row, model in enumerate(pieces):
            segments = model.num_segments
            self.piece_betas[row, :segments] = model.betas
            self.piece_alphas[row, :segments] = model.alphas
            for knot in range(segments - 1):
                value = model.bounds[knot + 1]
                left = model.betas[knot] * value + model.alphas[knot]
                right = (model.betas[knot + 1] * value
                         + model.alphas[knot + 1])
                self.knots[row, knot] = value
                self.knot_lows[row, knot] = min(left, right)
                self.knot_highs[row, knot] = max(left, right)

    def host_ranges(self, index: np.ndarray, lows: np.ndarray,
                    highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``models[index[i]].host_range([lows[i], highs[i]])`` for every ``i``."""
        out_lows = np.zeros(index.size, dtype=np.float64)
        out_highs = np.zeros(index.size, dtype=np.float64)
        family = self.family[index]
        for kind in self.families:
            chosen = np.flatnonzero(family == kind)
            if not chosen.size:
                continue
            rows, at, to = index[chosen], lows[chosen], highs[chosen]
            if kind == self._PIECEWISE:
                lo, hi = self._piecewise_extremes(self.piece_row[rows], at, to)
            else:
                at = slope_times_many(self.beta[rows], at) + self.alpha[rows]
                to = slope_times_many(self.beta[rows], to) + self.alpha[rows]
                lo, hi = np.minimum(at, to), np.maximum(at, to)
            out_lows[chosen], out_highs[chosen] = band_range_many(
                lo, hi, self.epsilon[rows])
        return out_lows, out_highs

    def _piecewise_extremes(self, rows: np.ndarray, lows: np.ndarray,
                            highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest prediction of each piecewise row over its range.

        The scalar walk evaluates every overlapped segment at its clipped
        endpoints: the range's own endpoints under their segments, plus
        both sides of every knot the range spans — which do not depend on
        the range, so they come precomputed and fold in with one masked
        min/max per knot column.
        """
        last_segment = self.piece_segments[rows] - 1
        knots = self.knots[rows]
        first = np.minimum((lows[:, None] >= knots).sum(axis=1), last_segment)
        last = np.minimum((highs[:, None] >= knots).sum(axis=1), last_segment)
        at_low = (slope_times_many(self.piece_betas[rows, first], lows)
                  + self.piece_alphas[rows, first])
        at_high = (slope_times_many(self.piece_betas[rows, last], highs)
                   + self.piece_alphas[rows, last])
        lo, hi = np.minimum(at_low, at_high), np.maximum(at_low, at_high)
        for knot in range(knots.shape[1]):
            spanned = (first <= knot) & (knot < last)
            if spanned.any():
                lo = np.where(spanned,
                              np.minimum(lo, self.knot_lows[rows, knot]), lo)
                hi = np.where(spanned,
                              np.maximum(hi, self.knot_highs[rows, knot]), hi)
        return lo, hi


def quantile(values: np.ndarray, q: "float | Sequence[float]",
             method: str = "linear") -> "float | tuple[float, ...]":
    """``np.quantile(values, q, method=method)`` of a 1-D float64 array.

    The same float, bit for bit, without the wrapper's cost (~0.1 ms a
    call, most of a small leaf's fit): the virtual index ``(n - 1) * q``
    (``linear``) or ``ceil((n - 1) * q)`` (``higher``), an index at or
    past the last one taking the maximum, numpy's ``_lerp`` (``a + (b -
    a) * t``, or ``b - (b - a) * (1 - t)`` for ``t >= 0.5``), and NaN
    whenever a value is NaN.  Without a zero among the values only the
    positions read are selected, one ``partition`` each (several times
    faster than one over a set): NaN sorts last, so it shows from the
    highest on, and the value after a selected one is the least of those
    after it.  ``-0.0`` and ``0.0`` are the only equal floats with unequal
    bits, and one-position selects degrade to a sort on mostly equal
    values (a clean line's exact-zero residuals), so values with a zero
    take numpy's own partition.  A tuple ``q`` gives a tuple.

    Args:
        values: At least one value.
        q: Probabilities in [0, 1].
        method: ``"linear"`` or ``"higher"``.
    """
    qs = (q,) if isinstance(q, float) else tuple(q)
    last = values.size - 1
    if method == "higher":
        lows = [math.ceil(last * probability) for probability in qs]
        highs = lows
        kth = lows + [-1]
    elif method == "linear":
        virtual = [last * probability for probability in qs]
        lows = [-1 if index >= last else math.floor(index) for index in virtual]
        highs = [-1 if low == -1 else low + 1 for low in lows]
        weights = [index - low for index, low in zip(virtual, lows)]
        kth = sorted({0, -1, *lows, *highs})
    else:
        raise ValueError(f"unsupported quantile method {method!r}")
    if values.all():
        selected = sorted({low % values.size for low in lows}, reverse=True)
        ordered = np.partition(values, selected[0])
        for stop, position in zip(selected, selected[1:]):
            ordered[:stop].partition(position)
        has_nan = math.isnan(np.maximum.reduce(ordered[selected[0]:]))
        above = [float(ordered[low]) if high == low
                 else float(np.minimum.reduce(ordered[high:]))
                 for low, high in zip(lows, highs)]
    else:
        ordered = np.partition(values, kth)
        has_nan = math.isnan(ordered[-1])
        above = [float(ordered[high]) for high in highs]
    if has_nan:
        results = [math.nan] * len(qs)
    elif method == "higher":
        results = above
    else:
        results = [_lerp(float(ordered[low]), value, weight)
                   for low, value, weight in zip(lows, above, weights)]
    return results[0] if isinstance(q, float) else tuple(results)


def _lerp(below: float, above: float, weight: float) -> float:
    """numpy's quantile interpolation, in its float expressions."""
    step = above - below
    if weight >= 0.5:
        return above - step * (1.0 - weight)
    return below + step * weight


def fit_linear(m: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    """One-pass OLS fit of ``n ~ beta * m + alpha``.

    Uses the closed-form simple-linear-regression solution the paper quotes:
    ``beta = cov(m, n) / var(m)`` and ``alpha = mean(n) - beta * mean(m)``.
    Degenerate inputs (fewer than two points, or zero variance in ``m``) fall
    back to a constant model ``beta = 0, alpha = mean(n)``.

    Returns:
        ``(beta, alpha)``.
    """
    if len(m) == 0:
        return 0.0, 0.0
    if len(m) == 1:
        return 0.0, float(n[0])
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    # What ndarray.mean computes (a pairwise sum over the count), without
    # its Python wrapper.
    m_mean = float(np.add.reduce(m)) / len(m)
    n_mean = float(np.add.reduce(n)) / len(n)
    m_centered = m - m_mean
    variance = float(np.dot(m_centered, m_centered))
    if variance == 0.0:
        return 0.0, n_mean
    covariance = float(np.dot(m_centered, n - n_mean))
    beta = covariance / variance
    alpha = n_mean - beta * m_mean
    return beta, alpha


def epsilon_for_host_span(host_span: float, num_tuples: int,
                          error_bound: float) -> float:
    """Derive the confidence interval epsilon from ``error_bound``.

    Section 4.5: assuming uniformly distributed host values, a point query on
    the target column returns a host range of width ``2 * epsilon`` which is
    expected to cover ``2 * epsilon / host_span * n`` host values, where
    ``host_span`` is the predicted host span over the leaf (``|beta| * (ub -
    lb)`` for a line).  Setting that expectation equal to ``error_bound``
    gives

        epsilon = host_span * error_bound / (2 * n)

    Any model family derives its band this way from the total variation of
    its predictions over the leaf's sub-range.  A zero span, a zero bound or
    an empty leaf yields zero, which makes the model cover only exact
    matches — every other tuple becomes an outlier, matching the paper's
    description of the ``error_bound = 0`` extreme.
    """
    if num_tuples <= 0:
        return 0.0
    return abs(host_span) * error_bound / (2.0 * num_tuples)


def fit_linear_trimmed(m: np.ndarray, n: np.ndarray, trim_fraction: float,
                       iterations: int = 2) -> tuple[float, float]:
    """OLS fit that is robust to a small fraction of gross outliers.

    The confidence band derived from ``error_bound`` is extremely tight, so a
    plain OLS fit dragged by even 1% of large-magnitude noise would mark
    *every* clean tuple as an outlier and force needless splits.  The paper's
    evaluation (Figures 16-18, 27-30) shows the opposite behaviour — injected
    noise (up to 10%) lands in the outlier buffers while the model stays
    locked to the clean correlation — which requires the fit itself to ignore
    the noise.  We achieve that with an iterated trimmed fit: fit, drop the
    ``trim_fraction`` largest absolute residuals, refit, and repeat.  The
    second round matters when the noise fraction is close to the trim
    fraction: after the first refit the noise residuals are unambiguous and
    the second trim removes their remaining influence.

    Args:
        m: Target values.
        n: Host values.
        trim_fraction: Fraction of points (the largest residuals) excluded
            at each refit; typically the TRS-Tree ``outlier_ratio``.
        iterations: Number of trim-and-refit rounds.

    Returns:
        ``(beta, alpha)``.
    """
    beta, alpha = fit_linear(m, n)
    if trim_fraction <= 0.0 or len(m) < 8:
        return beta, alpha
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    for _ in range(max(1, iterations)):
        residuals = np.abs(n - (beta * m + alpha))
        keep = residuals <= quantile(residuals, 1.0 - trim_fraction)
        if np.count_nonzero(keep) < 2:
            break
        beta, alpha = fit_linear(m[keep], n[keep])
        if keep.all():
            break
    return beta, alpha


# ----------------------------------------------------------- model selection

# Segment counts tried by the piecewise-linear candidate: 4 segments when the
# leaf holds enough tuples to fit them stably, 2 otherwise.
PIECEWISE_MANY_SEGMENTS = 4
PIECEWISE_FEW_SEGMENTS = 2
PIECEWISE_MIN_TUPLES_PER_SEGMENT = 16

# Splitting is judged futile when the piecewise candidate — a dry run of the
# sub-ranges a split would create — cannot shrink the linear band below this
# fraction: residuals that survive segmentation are a noise floor, not
# curvature.
SPLIT_GAIN_THRESHOLD = 0.5

# A noise-floor band may widen only while its leaf-spanning candidate drag
# stays within this fraction of the max_fp_ratio split budget.  The two
# budgets answer different questions: max_fp_ratio is the pathology net that
# forces a split/demotion, while widening is a *voluntary* trade (fewer
# leaves and buffer entries for a few extra candidates) that is only worth
# taking when the band is thin relative to the leaf — measurement jitter at
# a per-mille of the host span, not injected gross noise at a third of it.
WIDEN_BUDGET_FRACTION = 0.1


def _coverage_epsilon(residuals: np.ndarray, coverage: float) -> float:
    """Band half-width needed to cover ``coverage`` of the tuples.

    Uses the ``higher`` quantile method (an actual order statistic) so that
    at least ``ceil(coverage * n)`` residuals are ``<=`` the returned value
    — the interpolated default can land half a tuple short of the coverage
    target, which is exactly enough to flip a knife-edge outlier-ratio
    split decision.
    """
    if residuals.size == 0:
        return 0.0
    return quantile(residuals, min(max(coverage, 0.0), 1.0),
                    method="higher")


def _piecewise_segments(num_tuples: int) -> int:
    if num_tuples >= (PIECEWISE_MANY_SEGMENTS
                      * PIECEWISE_MIN_TUPLES_PER_SEGMENT):
        return PIECEWISE_MANY_SEGMENTS
    return PIECEWISE_FEW_SEGMENTS


def piecewise_segment_indices(m: np.ndarray,
                              bounds: tuple[float, ...]) -> np.ndarray:
    """Segment index per value — comparisons against the segment bounds.

    The one partition rule shared by fitting, residual scoring and the
    model's own ``covers_many``: :func:`~repro.segments.bound_positions`
    over the interior bounds, a value on a bound belonging to the
    right-hand segment (mirroring the tree's child routing).  Values
    outside ``[bounds[0], bounds[-1]]`` clamp to the edge segments.
    """
    if bounds[-1] <= bounds[0]:
        return np.zeros(len(m), dtype=np.uint8)
    return bound_positions(m, bounds[1:-1])


def _fit_piecewise(m: np.ndarray, n: np.ndarray, target_range: KeyRange,
                   trim_fraction: float, whole: tuple[float, float],
                   ) -> tuple[tuple, tuple, tuple, np.ndarray]:
    """Fit one trimmed OLS line per equal-width segment.

    Segments with fewer than two points inherit ``whole``, the whole-leaf
    trimmed line (the linear candidate's), so their extrapolated
    predictions stay anchored to the data.

    Returns:
        ``(bounds, betas, alphas, indices)`` — ``indices`` is the segment
        assignment used for the fit, so callers score residuals on exactly
        the fitting partition instead of re-deriving it.
    """
    width = target_range.width
    segments = _piecewise_segments(len(m))
    bounds = tuple(target_range.low + width * position / segments
                   for position in range(segments)) + (target_range.high,)
    indices = piecewise_segment_indices(m, bounds)
    order, offsets = group_order(indices, segments)
    grouped_m, grouped_n = m[order], n[order]
    betas: list[float] = []
    alphas: list[float] = []
    for start, stop in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        if stop - start >= 2:
            beta, alpha = fit_linear_trimmed(grouped_m[start:stop],
                                             grouped_n[start:stop],
                                             trim_fraction)
        else:
            beta, alpha = whole
        betas.append(beta)
        alphas.append(alpha)
    return bounds, tuple(betas), tuple(alphas), indices


def _predicted_span(model: LeafModel, target_range: KeyRange) -> float:
    """Total predicted host variation over the leaf (band-free)."""
    if isinstance(model, PiecewiseLinearModel):
        span = 0.0
        for segment in range(model.num_segments):
            lo = model.betas[segment] * model.bounds[segment] \
                + model.alphas[segment]
            hi = model.betas[segment] * model.bounds[segment + 1] \
                + model.alphas[segment]
            span += abs(hi - lo)
        return span
    return abs(model.predict(target_range.high)
               - model.predict(target_range.low))


def _robust_host_span(n: np.ndarray, trim_fraction: float) -> float:
    """Observed host span with the trim fraction of extreme values removed.

    Gross outliers (sensor glitches) would otherwise inflate the span —
    and therefore deflate the density the false-positive budget is priced
    against.
    """
    if n.size == 0:
        return 0.0
    if trim_fraction > 0.0 and n.size >= 8:
        lo, hi = quantile(n, (0.5 * trim_fraction, 1.0 - 0.5 * trim_fraction))
        return hi - lo
    return float(n.max() - n.min())


def select_leaf_model(m: np.ndarray, n: np.ndarray, target_range: KeyRange,
                      error_bound: float, trim_fraction: float,
                      max_fp_ratio: float) -> LeafModel:
    """Fit the line and, where it falls short, the piecewise candidate; keep
    the tighter band.

    Selection rule: each candidate is scored by the band half-width it would
    need to cover ``1 - trim_fraction`` of the leaf's tuples (its
    equal-coverage band area — the candidates share the leaf's width, so
    area is proportional to the half-width).  The winner's *actual* epsilon
    is then derived from the error bound via :func:`epsilon_for_host_span`,
    keeping the paper's expected-false-positive semantics per point probe.

    When the coverage band exceeds the error-bound band, the leaf's
    residuals are dominated by something the error-bound derivation cannot
    see — either curvature (splitting helps: narrower sub-ranges reduce it
    quadratically) or an irreducible noise floor (splitting is futile: every
    child inherits the same jitter and the tree only multiplies leaves).
    The two are told apart by the piecewise candidate, whose segments *are*
    a dry run of a split: when even the segmented fit cannot halve the
    linear band, the residuals are a floor no amount of splitting will
    reduce.  Such a floor-bound band *widens* to its coverage quantile —
    but only when the whole quantile fits the widening budget ``2 * epsilon
    / host_span <= WIDEN_BUDGET_FRACTION * max_fp_ratio`` (scale-free: band
    width x the leaf's own host density, per covered tuple).  The trade is
    all-or-nothing: a band capped short of its coverage quantile would pay
    extra false positives on every probe and still buffer the stragglers,
    so gross injected noise right at the coverage boundary keeps the tight
    error-bound band and outlier entries instead.  Curvature-bound leaves
    never widen; they miss their coverage target and split through the
    outlier-ratio criterion — exactly the case splitting can fix.

    The line short-circuits the piecewise fit when its error-bound band
    already meets the coverage target — on linearly correlated leaves (the
    Stock workload, Synthetic-Linear) the build fits one line per leaf.

    Args:
        m: Target values covered by the leaf.
        n: Host values aligned with ``m``.
        target_range: The leaf's sub-range on the target column.
        error_bound: Expected false-positive count per point probe.
        trim_fraction: Outlier fraction the band is allowed to leave out;
            also the robustness trim of every fit.
        max_fp_ratio: Tolerated false-positive excess of a widened band,
            relative to ``error_bound``.
    """
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    coverage = 1.0 - max(trim_fraction, 0.0)

    beta, alpha = fit_linear_trimmed(m, n, trim_fraction)
    linear_band = _coverage_epsilon(np.abs(n - (beta * m + alpha)), coverage)
    linear = LinearModel(beta=beta, alpha=alpha, epsilon=epsilon_for_host_span(
        abs(beta) * target_range.width, len(m), error_bound))
    # Fast path: the error-bound band already covers the target fraction, or
    # the leaf is too small for the piecewise fit to be stable.
    if len(m) < 8 or linear_band <= linear.epsilon:
        return linear

    bounds, betas, alphas, indices = _fit_piecewise(
        m, n, target_range, trim_fraction, (beta, alpha))
    piecewise_band = _coverage_epsilon(
        np.abs(n - (np.asarray(betas)[indices] * m
                    + np.asarray(alphas)[indices])), coverage)

    # Smallest equal-coverage band wins; a tie keeps the cheaper line.
    if piecewise_band < linear_band:
        best = PiecewiseLinearModel(bounds=bounds, betas=betas,
                                    alphas=alphas, epsilon=0.0)
        band = piecewise_band
    else:
        best, band = linear, linear_band
    epsilon = epsilon_for_host_span(_predicted_span(best, target_range),
                                    len(m), error_bound)
    splitting_is_futile = piecewise_band >= SPLIT_GAIN_THRESHOLD * linear_band
    if splitting_is_futile and band > epsilon:
        host_span = _robust_host_span(n, trim_fraction)
        if host_span > 0.0:
            # All or nothing (see above):
            # 2 * eps / host_span <= WIDEN_BUDGET_FRACTION * max_fp_ratio.
            budget = 0.5 * WIDEN_BUDGET_FRACTION * max_fp_ratio * host_span
            if band <= budget:
                epsilon = band
    return dataclasses.replace(best, epsilon=epsilon)


def estimate_leaf_false_positives(model: LeafModel,
                                  covered_hosts: np.ndarray) -> float:
    """Estimated false-positive candidates a leaf-spanning probe drags in.

    The band's host width exceeds the predictions by ``2 * epsilon``; with
    the leaf's own host-value density (covered tuples over their observed
    host span — no catalog round-trip needed at build time) the extra
    candidates a probe covering the whole leaf picks up are::

        estimated_fp = 2 * epsilon * num_covered / host_span

    The host span is floored at ``epsilon`` itself: a band wider than the
    covered hosts it serves (a glitch-dragged fit covering one or two
    tuples) prices at least its own width, which caps the estimate at
    ``2 * num_covered`` — decisively over any sane ``max_fp_ratio`` —
    instead of letting a degenerate zero span hide the damage.
    """
    num_covered = int(len(covered_hosts))
    if num_covered == 0 or model.epsilon <= 0.0:
        return 0.0
    host_span = float(covered_hosts.max() - covered_hosts.min())
    host_span = max(host_span, model.epsilon)
    return 2.0 * model.epsilon * num_covered / host_span
