"""Vectorised comparison kernels: a sound prefilter for the ER hot path.

The scalar compare/decide loop (:func:`repro.resolution.er._decide_pairs`)
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
rule, a subclass overriding ``decide``/``compare``, a measure this table
of bounds does not know) makes :func:`compile_comparator` return ``None``
and the resolver runs the scalar loop for every pair, exactly as before.

The scoring methods mutate nothing — no caches, no globals, no self
state; the resolver runs the prefilter once per table, ahead of the
scalar decide loop, and hands that loop the surviving pairs in their
original sorted order.  A compiled comparator lives for one resolve;
the name tokens compiling reads live in the scoring context's
``NameScores``, which is what carries them to the next resolve
(:class:`~repro.resolution.comparison.ScoringContext`).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.matching.similarity import NameScores, token_set
from repro.model.records import Table
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
    "compile_comparator",
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
    """One compiled field: measure kernel + weight + missingness mask."""

    def __init__(self, kernel, weight: float, missing: np.ndarray) -> None:
        self.kernel = kernel
        self.weight = weight
        self.missing = missing

    def contribution(
        self, lefts: np.ndarray, rights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(weighted bound, weight) per pair, zero where incomparable.

        Mirrors ``similarity_from_vector``: a missing side removes the
        field from both the numerator and the weight sum.
        """
        comparable = ~(self.missing[lefts] | self.missing[rights])
        bound = self.kernel.upper(lefts, rights)
        return (
            np.where(comparable, self.weight * bound, 0.0),
            np.where(comparable, self.weight, 0.0),
        )


class CompiledComparator:
    """A comparator + threshold rule compiled against one table.

    :meth:`survivors` is the only method the resolver needs: the subset
    of a candidate-pair array whose pooled upper bound clears the
    threshold (minus :data:`PRUNE_MARGIN`).  Everything pruned is
    *provably* a non-match under the exact scalar arithmetic.
    """

    def __init__(
        self, fields: Sequence[_FieldKernel], threshold: float
    ) -> None:
        self.fields = tuple(fields)
        self.cutoff = threshold - PRUNE_MARGIN

    def upper_bounds(self, pairs: np.ndarray) -> np.ndarray:
        """Pooled similarity upper bound for each candidate pair."""
        lefts = pairs[:, 0]
        rights = pairs[:, 1]
        parts = [
            field.contribution(lefts, rights) for field in self.fields
        ]
        numerator = np.sum([part[0] for part in parts], axis=0)
        weight_sum = np.sum([part[1] for part in parts], axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            pooled = numerator / weight_sum
        # No comparable field: similarity_from_vector scores the pair 0.
        return np.where(weight_sum == 0.0, 0.0, pooled)

    def survivors(self, pairs: np.ndarray) -> np.ndarray:
        """The pairs the exact scalar path could still decide as matches."""
        if pairs.shape[0] == 0:
            return pairs
        masks = [
            self.upper_bounds(pairs[start:start + _BATCH]) >= self.cutoff
            for start in range(0, pairs.shape[0], _BATCH)
        ]
        return pairs[np.concatenate(masks)]


def _column(table: Table, attribute: str) -> tuple[list, np.ndarray]:
    """(raw values, missing mask) for one attribute, missing → ``None``."""
    raws: list = []
    flags: list[bool] = []
    for record in table.records:
        value = record.get(attribute)
        flags.append(value.is_missing)
        raws.append(None if value.is_missing else value.raw)
    return raws, np.asarray(flags, dtype=bool)


def _compile_field(field: FieldComparator, table: Table, names: NameScores):
    """The measure kernel + missing mask for one field, or ``None``."""
    raws, missing = _column(table, field.attribute)
    measure = field.measure

    if measure == "jaccard":
        sets = [
            token_set(str(raw)) if raw is not None else frozenset()
            for raw in raws
        ]
        return _TokenSetKernel(_TokenRows(sets)), missing

    if measure in ("tokens", "tokens_strict"):
        token_lists = [
            names.tokens(str(raw)) if raw is not None else ()
            for raw in raws
        ]
        digit_counters = [
            Counter(token for token in tokens if names.is_code(token))
            for tokens in token_lists
        ]
        totals = np.asarray(
            [len(tokens) for tokens in token_lists], dtype=np.float64
        )
        digit_totals = np.asarray(
            [sum(counter.values()) for counter in digit_counters],
            dtype=np.float64,
        )
        return _NameTokenKernel(
            totals,
            totals - digit_totals,
            _TokenRows(digit_counters),
            strict=measure == "tokens_strict",
        ), missing

    if measure == "jaro":
        lengths = np.asarray(
            [
                len(str(raw).lower()) if raw is not None else 0
                for raw in raws
            ],
            dtype=np.float64,
        )
        return _EditKernel(lengths), missing

    if measure == "numeric":
        values = np.full(len(raws), np.nan, dtype=np.float64)
        nonnumeric = np.zeros(len(raws), dtype=bool)
        for index, raw in enumerate(raws):
            if raw is None:
                continue
            if _is_number(raw):
                values[index] = float(raw)
            else:
                nonnumeric[index] = True
        return _NumericKernel(values, nonnumeric), missing

    if measure == "geo":
        lat = np.full(len(raws), np.nan, dtype=np.float64)
        lon = np.full(len(raws), np.nan, dtype=np.float64)
        for index, raw in enumerate(raws):
            if raw is None:
                continue
            point = parse_point(raw)
            if point is not None:
                lat[index], lon[index] = point
        return _GeoKernel(lat, lon), missing

    if measure == "exact":
        interned: dict[str, int] = {}
        codes = np.full(len(raws), -1, dtype=np.int64)
        for index, raw in enumerate(raws):
            if raw is None:
                continue
            text = str(raw).lower()
            codes[index] = interned.setdefault(text, len(interned))
        return _ExactKernel(codes), missing

    return None  # a measure this table of bounds does not know


def compile_comparator(
    comparator: object,
    rule: object,
    table: Table,
    metrics: "MetricsRegistry | None" = None,
) -> CompiledComparator | None:
    """Compile ``comparator`` + ``rule`` against ``table``, if eligible.

    Eligibility is deliberately exact-type: a subclass overriding
    ``decide``, ``vector``, or ``compare`` voids the bound proofs, so
    anything but the plain classes falls back to the scalar loop
    (returning ``None``).  Ineligibility is counted on ``metrics``
    (``kernels.fallback``) so a silently-scalar resolver is visible in
    telemetry.

    ``comparator`` may be the resolve's :class:`ScoringContext`: the
    name tokens compiled here then stay in its tables for the scalar
    loop that re-decides the survivors.
    """
    scores = ScoringContext.around(comparator)
    comparator = scores.comparator
    eligible = (
        type(rule) is ThresholdRule
        and type(comparator) is RecordComparator
        and all(type(field) is FieldComparator for field in comparator.fields)
    )
    compiled_fields: list[_FieldKernel] = []
    if eligible:
        for field in comparator.fields:
            compiled = _compile_field(field, table, scores.names)
            if compiled is None:
                eligible = False
                break
            kernel, missing = compiled
            compiled_fields.append(
                _FieldKernel(kernel, field.weight, missing)
            )
    if not eligible:
        if metrics is not None:
            metrics.counter("kernels.fallback").increment()
        return None
    return CompiledComparator(compiled_fields, rule.threshold)
