"""Vectorised comparison kernels: a sound prefilter for the ER hot path.

The scalar compare/decide loop (``repro.resolution.er.EntityResolver._decide``)
is the quadratic wall of the pipeline: every candidate pair re-runs
pure-Python per-field measures.  This module compiles a
:class:`RecordComparator` + :class:`ThresholdRule` against one table into
columnar numpy kernels that score whole candidate-pair arrays in
batch — but it never *decides* anything.  The kernels compute a provable
**upper bound** on the pooled similarity of each pair; pairs whose bound
falls short of the rule's threshold (minus a small float-safety margin)
cannot match under the exact scalar arithmetic and are pruned, and every
surviving pair is re-decided by the unchanged scalar path.  Decisions —
matched pairs, confidences, cluster ids — are therefore **bit-identical**
to the scalar loop by construction, whatever the kernels do.

Per-measure bounds (each ``>=`` the scalar measure wherever both sides
are present; missing fields are masked out of the pool exactly as
``similarity_from_vector`` does):

========================  ====================================================
measure                   upper bound
========================  ====================================================
``jaccard``               exact, via vocabulary-interned token rows built
                          once per table as sorted ``row * V + token`` keys —
                          one ``searchsorted`` counts intersections for the
                          whole pair batch
``exact``                 exact, via interned lower-cased value codes
``numeric``               exact array arithmetic (NaN-poisoned operands
                          score 0.0, matching the scalar ``max(0.0, nan)``)
``geo``                   ``exp(-hypot/scale)`` off coordinates parsed once
                          per record (numpy/libm ULP drift is absorbed by
                          the prune margin)
``jaro``                  matches ``m <= min(|a|,|b|)``, transpositions
                          ``>= 0``: ``jaro <= (min/|a| + min/|b| + 1)/3``;
                          Winkler boost bounded by the max prefix (4):
                          ``jw <= 0.6*jaro_ub + 0.4``
``tokens`` (Monge–Elkan)  digit-bearing tokens score 1.0 iff exactly equal
``tokens_strict``         (the measure's code rule), so the directed bound
                          is ``(matched digit tokens + non-digit tokens if
                          the other side has any)/|tokens|``, counted with
                          multiplicity via digit-token rows off the
                          scoring context's name tokens and digit classes
                          (tokenised once — here, or by the earlier
                          resolve the context reads through to — and read
                          again by the scalar loop)
========================  ====================================================

Compilation is conservative: anything but a plain ``ThresholdRule`` over a
plain ``RecordComparator`` of plain ``FieldComparator`` fields (another
rule, a subclass overriding ``decide``/``compare``) is not
:func:`compilable`, and the resolver runs the scalar loop for every
pair, exactly as before.

What a kernel reads of a record is its column entries
(:func:`record_entries`: a token set, name-token and digit-token
counts, a length, a parsed number or point, a lower-cased code — or
``None`` for a missing value), and a pair's per-field bounds depend on
its two records' entries alone, never on the weights or the threshold.
So the resolver carries entries and per-field bounds from one resolve to
the next by record identity, compiles (:func:`compile_entries`) only
over the records of the candidate pairs it has no bounds for, and pools
every pair's bounds under the current weights (:func:`pooled_bounds`).
The scoring methods mutate nothing — no caches, no globals, no self
state — and a compiled comparator lives for one compile.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.matching.similarity import NameScores, token_set
from repro.model.records import Record, Table
from repro.resolution.comparison import (
    GEO_SCALE_DEGREES,
    FieldComparator,
    RecordComparator,
    ScoringContext,
    _is_number,
    parse_point,
)
from repro.resolution.rules import ThresholdRule

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

__all__ = [
    "PRUNE_MARGIN",
    "CompiledComparator",
    "compilable",
    "compile_comparator",
    "compile_entries",
    "pooled_bounds",
    "record_entries",
]

#: Subtracted from the threshold before pruning: the bounds for ``geo``
#: are computed with numpy's libm whose last-ulp rounding can differ from
#: ``math``'s, and pooled ratios accumulate a few ulps of their own.
#: 1e-7 is ~1e9 ulps at similarity scale — astronomically wider than any
#: drift — while thresholds meaningfully distinct from it stay distinct.
PRUNE_MARGIN = 1e-7

#: Pair-batch size for scoring: bounds the transient token products
#: (a batch of 65536 pairs holds the left rows' expanded token entries +
#: a dozen float64 columns, a few MB) so candidate arrays of millions of
#: pairs stream through flat memory.
_BATCH = 1 << 16


class _TokenRows:
    """Token weights per row as sorted int64 keys ``row * V + token``.

    The (flat, indptr) layout of ``blocking._token_ids`` over ``V``
    interned tokens; a Counter row weighs each token by its multiplicity,
    a frozenset row by 1.  Sums of these small integers are exact.
    """

    def __init__(self, token_sets: Sequence[Counter | frozenset]) -> None:
        vocabulary: dict[str, int] = {}
        entries = np.asarray(
            [
                (row, vocabulary.setdefault(token, len(vocabulary)), count)
                for row, tokens in enumerate(token_sets)
                for token, count in Counter(tokens).items()
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        self.width = max(len(vocabulary), 1)
        keys = entries[:, 0] * self.width + entries[:, 1]
        order = np.argsort(keys)
        self.keys = keys[order]
        self.weights = entries[order, 2].astype(np.float64)
        self.lengths = np.asarray([len(t) for t in token_sets], dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths

    def held(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """``sum(left[t] for t in left if t in right)`` per pair: each left
        row's entries, looked up as ``right * V + token`` in the keys."""
        lengths = self.lengths[lefts]
        pair = np.repeat(np.arange(len(lefts)), lengths)
        skip = self.starts[lefts] - (np.cumsum(lengths) - lengths)
        entry = np.arange(len(pair)) + skip[pair]
        probe = self.keys[entry] + (rights - lefts)[pair] * self.width
        found = np.searchsorted(self.keys, probe)
        hit = self.keys[np.minimum(found, len(self.keys) - 1)] == probe
        return np.bincount(pair, self.weights[entry] * hit, len(lefts))


class _TokenSetKernel:
    """Exact Jaccard over binary token rows."""

    def __init__(self, rows: _TokenRows) -> None:
        self.rows = rows

    def upper(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        intersection = self.rows.held(lefts, rights)
        count_l = self.rows.lengths[lefts]
        count_r = self.rows.lengths[rights]
        denominator = count_l + count_r - intersection
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = intersection / denominator
        # Empty denominator means both token sets are empty: the scalar
        # measure defines that as 1.0 (no evidence of difference).
        return np.where(denominator == 0.0, 1.0, ratio)


class _NameTokenKernel:
    """Monge–Elkan upper bound off the memoised name tokenisation.

    ``token_sim`` scores a digit-bearing token 1.0 iff it is exactly
    equal to its partner and 0.0 against everything else, so the digit
    part of the directed score is *exact* (matched digit occurrences);
    non-digit tokens are bounded by 1.0 whenever the other side has any
    non-digit token to align with, 0.0 otherwise.
    """

    def __init__(
        self,
        totals: np.ndarray,
        nondigit: np.ndarray,
        digit_counts: _TokenRows,
        strict: bool,
    ) -> None:
        self.totals = totals
        self.nondigit = nondigit
        self.digit_counts = digit_counts
        self.strict = strict

    def upper(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        matched_lr = self.digit_counts.held(lefts, rights)
        matched_rl = self.digit_counts.held(rights, lefts)
        total_l = self.totals[lefts]
        total_r = self.totals[rights]
        nondigit_l = self.nondigit[lefts]
        nondigit_r = self.nondigit[rights]
        forward = (
            matched_lr + nondigit_l * (nondigit_r > 0.0)
        ) / np.maximum(total_l, 1.0)
        backward = (
            matched_rl + nondigit_r * (nondigit_l > 0.0)
        ) / np.maximum(total_r, 1.0)
        combined = (
            np.minimum(forward, backward)
            if self.strict
            else (forward + backward) / 2.0
        )
        both_empty = (total_l == 0.0) & (total_r == 0.0)
        either_empty = (total_l == 0.0) | (total_r == 0.0)
        return np.where(
            both_empty, 1.0, np.where(either_empty, 0.0, combined)
        )


class _EditKernel:
    """Length-derived bound for Jaro–Winkler."""

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = lengths

    def upper(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        length_l = self.lengths[lefts]
        length_r = self.lengths[rights]
        longest = np.maximum(length_l, length_r)
        shortest = np.minimum(length_l, length_r)
        jaro_bound = (
            shortest / np.maximum(length_l, 1.0)
            + shortest / np.maximum(length_r, 1.0)
            + 1.0
        ) / 3.0
        winkler_bound = 0.6 * jaro_bound + 0.4
        # One empty side: no matches are possible and the prefix boost is
        # zero, so the true score is exactly 0; both empty compare equal.
        return np.where(
            longest == 0.0,
            1.0,
            np.where(shortest == 0.0, 0.0, winkler_bound),
        )


class _NumericKernel:
    """Exact relative-closeness scores over pre-parsed floats."""

    def __init__(self, values: np.ndarray, nonnumeric: np.ndarray) -> None:
        self.values = values
        self.nonnumeric = nonnumeric

    def upper(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        value_l = self.values[lefts]
        value_r = self.values[rights]
        denominator = np.maximum(np.abs(value_l), np.abs(value_r))
        with np.errstate(invalid="ignore", divide="ignore"):
            closeness = 1.0 - np.abs(value_l - value_r) / denominator
        # The scalar path's ``max(0.0, nan)`` evaluates to 0.0 (NaN never
        # compares greater), while ``np.maximum`` would propagate the NaN
        # and poison the pooled bound — clamp NaN explicitly.
        clamped = np.where(
            np.isnan(closeness), 0.0, np.maximum(closeness, 0.0)
        )
        scores = np.where(value_l == value_r, 1.0, clamped)
        bad = self.nonnumeric[lefts] | self.nonnumeric[rights]
        return np.where(bad, 0.0, scores)


class _GeoKernel:
    """Distance decay over coordinates parsed once per record."""

    def __init__(self, lat: np.ndarray, lon: np.ndarray) -> None:
        self.lat = lat
        self.lon = lon

    def upper(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        lat_l = self.lat[lefts]
        lat_r = self.lat[rights]
        parsed = ~(np.isnan(lat_l) | np.isnan(lat_r))
        distance = np.hypot(
            lat_l - lat_r, self.lon[lefts] - self.lon[rights]
        )
        with np.errstate(invalid="ignore"):
            decay = np.exp(-distance / GEO_SCALE_DEGREES)
        return np.where(parsed, decay, 0.0)


class _ExactKernel:
    """Equality of interned lower-cased value codes."""

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes

    def upper(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        return (self.codes[lefts] == self.codes[rights]).astype(np.float64)


class _FieldKernel:
    """One compiled field: measure kernel + missingness mask."""

    def __init__(self, kernel, missing: np.ndarray) -> None:
        self.kernel = kernel
        self.missing = missing

    def bounds(
        self, lefts: np.ndarray, rights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(bound, comparable) per pair: a missing side makes the field
        incomparable, whatever its bound reads."""
        comparable = ~(self.missing[lefts] | self.missing[rights])
        return self.kernel.upper(lefts, rights), comparable


def pooled_bounds(
    bounds: np.ndarray, comparable: np.ndarray, weights: Sequence[float]
) -> np.ndarray:
    """The pooled similarity upper bound of each pair, from its per-field
    ``bounds`` and ``comparable`` rows (one row per field, one column per
    pair) under ``weights``.

    Mirrors ``similarity_from_vector``: an incomparable field leaves both
    the numerator and the weight sum.  The bounds never depend on the
    weights, so bounds computed under one comparator's weights pool
    under another's with the same fields.
    """
    numerator = np.sum(
        [
            np.where(mask, weight * bound, 0.0)
            for bound, mask, weight in zip(bounds, comparable, weights)
        ],
        axis=0,
    )
    weight_sum = np.sum(
        [np.where(mask, weight, 0.0) for mask, weight in zip(comparable, weights)],
        axis=0,
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        pooled = numerator / weight_sum
    # No comparable field: similarity_from_vector scores the pair 0.
    return np.where(weight_sum == 0.0, 0.0, pooled)


class CompiledComparator:
    """A comparator + threshold rule compiled against one list of rows.

    :meth:`survivors` is what pruning needs: the subset of a
    candidate-pair array whose pooled upper bound clears the threshold
    (minus :data:`PRUNE_MARGIN`).  Everything pruned is *provably* a
    non-match under the exact scalar arithmetic.  :meth:`field_bounds`
    is the per-field half of it, which the resolver carries from one
    resolve to the next and pools under each resolve's weights.
    """

    def __init__(
        self,
        fields: Sequence[_FieldKernel],
        weights: Sequence[float],
        threshold: float,
    ) -> None:
        self.fields = tuple(fields)
        self.weights = tuple(weights)
        self.cutoff = threshold - PRUNE_MARGIN

    def field_bounds(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(bounds, comparable)``: one row per field, one column per
        pair, computed a batch of pairs at a time."""
        bounds = np.empty((len(self.fields), pairs.shape[0]), dtype=np.float64)
        comparable = np.empty(bounds.shape, dtype=bool)
        for start in range(0, pairs.shape[0], _BATCH):
            batch = pairs[start:start + _BATCH]
            for row, field in enumerate(self.fields):
                bound, mask = field.bounds(batch[:, 0], batch[:, 1])
                bounds[row, start:start + _BATCH] = bound
                comparable[row, start:start + _BATCH] = mask
        return bounds, comparable

    def upper_bounds(self, pairs: np.ndarray) -> np.ndarray:
        """Pooled similarity upper bound for each candidate pair."""
        return pooled_bounds(*self.field_bounds(pairs), self.weights)

    def survivors(self, pairs: np.ndarray) -> np.ndarray:
        """The pairs the exact scalar path could still decide as matches."""
        if pairs.shape[0] == 0:
            return pairs
        return pairs[self.upper_bounds(pairs) >= self.cutoff]


def _entry(measure: str, raw: object, names: NameScores) -> object:
    """What a kernel reads of one present value: its column entry."""
    if measure == "jaccard":
        return token_set(str(raw))
    if measure in ("tokens", "tokens_strict"):
        tokens = names.tokens(str(raw))
        return len(tokens), Counter(
            token for token in tokens if names.is_code(token)
        )
    if measure == "jaro":
        return len(str(raw).lower())
    if measure == "numeric":
        return (float(raw), False) if _is_number(raw) else (np.nan, True)
    if measure == "geo":
        return parse_point(raw) or (np.nan, np.nan)
    return str(raw).lower()  # exact


def record_entries(
    fields: Sequence[FieldComparator], record: Record, names: NameScores
) -> tuple:
    """One record's column entries, one per field, ``None`` where the
    value is missing: everything :func:`compile_entries` reads of it.
    A pure function of the record's values and the fields' measures."""
    entries = []
    for field in fields:
        value = record.get(field.attribute)
        entries.append(
            None if value.is_missing
            else _entry(field.measure, value.raw, names)
        )
    return tuple(entries)


def _field_kernel(measure: str, column: Sequence[object]):
    """The measure kernel over one field's column of entries."""
    if measure == "jaccard":
        return _TokenSetKernel(_TokenRows(
            [frozenset() if entry is None else entry for entry in column]
        ))
    if measure in ("tokens", "tokens_strict"):
        present = [(0, Counter()) if entry is None else entry for entry in column]
        totals = np.asarray([total for total, __ in present], dtype=np.float64)
        digit_totals = np.asarray(
            [sum(digits.values()) for __, digits in present], dtype=np.float64
        )
        return _NameTokenKernel(
            totals,
            totals - digit_totals,
            _TokenRows([digits for __, digits in present]),
            strict=measure == "tokens_strict",
        )
    if measure == "jaro":
        return _EditKernel(np.asarray(
            [0 if entry is None else entry for entry in column],
            dtype=np.float64,
        ))
    if measure == "numeric":
        present = [(np.nan, False) if entry is None else entry for entry in column]
        return _NumericKernel(
            np.asarray([value for value, __ in present], dtype=np.float64),
            np.asarray([bad for __, bad in present], dtype=bool),
        )
    if measure == "geo":
        points = np.asarray(
            [(np.nan, np.nan) if entry is None else entry for entry in column],
            dtype=np.float64,
        ).reshape(-1, 2)
        return _GeoKernel(points[:, 0], points[:, 1])
    interned: dict[str, int] = {}  # exact
    return _ExactKernel(np.asarray(
        [
            -1 if entry is None else interned.setdefault(entry, len(interned))
            for entry in column
        ],
        dtype=np.int64,
    ))


def compilable(comparator: object, rule: object) -> bool:
    """Whether the bound proofs hold for ``comparator`` + ``rule``.

    Deliberately exact-type: a subclass overriding ``decide``,
    ``vector`` or ``compare`` voids them, so only a plain
    :class:`ThresholdRule` over a plain :class:`RecordComparator` of
    plain :class:`FieldComparator` fields compiles.
    """
    return (
        type(rule) is ThresholdRule
        and type(comparator) is RecordComparator
        and all(type(field) is FieldComparator for field in comparator.fields)
    )


def compile_entries(
    comparator: RecordComparator, rows: Sequence[tuple], threshold: float = 0.0
) -> CompiledComparator:
    """Compile ``comparator`` over ``rows`` of :func:`record_entries`
    (pair indices then index ``rows``); :meth:`~CompiledComparator.
    survivors` prunes below ``threshold``."""
    fields = comparator.fields
    columns = list(zip(*rows)) if rows else [()] * len(fields)
    return CompiledComparator(
        [
            _FieldKernel(
                _field_kernel(field.measure, column),
                np.asarray([entry is None for entry in column], dtype=bool),
            )
            for field, column in zip(fields, columns)
        ],
        [field.weight for field in fields],
        threshold,
    )


def compile_comparator(
    comparator: object,
    rule: object,
    table: Table,
    metrics: "MetricsRegistry | None" = None,
) -> CompiledComparator | None:
    """Compile ``comparator`` + ``rule`` against ``table``, if
    :func:`compilable`; ``None`` otherwise, counted on ``metrics``
    (``kernels.fallback``) so a silently-scalar resolver is visible in
    telemetry.

    ``comparator`` may be a :class:`ScoringContext`: the name tokens
    compiled here then stay in its tables for a scalar loop off it.
    """
    scores = ScoringContext.around(comparator)
    comparator = scores.comparator
    if not compilable(comparator, rule):
        if metrics is not None:
            metrics.counter("kernels.fallback").increment()
        return None
    return compile_entries(
        comparator,
        [
            record_entries(comparator.fields, record, scores.names)
            for record in table.records
        ],
        rule.threshold,
    )
