"""Truth discovery: estimating source trust and value truth jointly.

Section 2.3 cites Yin, Han & Yu's TruthFinder [36] as the kind of evidence
assimilation wrangling needs; Section 4.2 demands that uncertainty "is
represented explicitly and reasoned with systematically".  Two models:

* :class:`TruthFinder` — the iterative trust/confidence fixpoint of [36],
  with value-implication between numerically close claims;
* :class:`AccuEM` — an EM estimator of per-source accuracy under the
  single-true-value assumption (AccuVote-style, after Dong et al.).

Both consume the same :class:`Claim` triples, so benchmarks can compare
them and naive voting on identical inputs (experiment E9).

E9 also shows where plain accuracy-EM fails: once several sources *copy*
the same stale feed, their agreement looks like independent confirmation
and the EM locks onto the copied error.  :func:`detect_copying` scores
that dependence (after Dong, Berti-Équille & Srivastava) and gives each
source an independence weight in ``(0, 1]``; passed to
:meth:`AccuEM.run` as vote weights, they make a copier bloc vote like
one source.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import FusionError

__all__ = [
    "Claim",
    "CopyReport",
    "TruthResult",
    "TruthFinder",
    "AccuEM",
    "detect_copying",
    "majority_baseline",
]

_TF_DAMPENING = 0.3
_TF_TOLERANCE = 1e-4

# AccuEM's schedule.  Laplace-style smoothing toward 0.5 and a hard cap
# keep the EM from becoming overconfident on few items, where a couple
# of coincidentally shared errors can otherwise flip the ranking.
_EM_MAX_ITERATIONS = 30
_EM_TOLERANCE = 1e-5
_EM_PRIOR_STRENGTH = 2.0
_EM_ACCURACY_CAP = 0.95

# A source's accuracy when no trusted item checks it.
_COPY_DEFAULT_ACCURACY = 0.7


@dataclass(frozen=True)
class Claim:
    """``source`` claims that ``data_item`` has ``value``."""

    source: str
    data_item: str
    value: object


@dataclass
class TruthResult:
    """Chosen value and confidence per data item, plus source trust."""

    values: dict[str, object]
    confidences: dict[str, float]
    source_trust: dict[str, float]
    iterations: int

    def accuracy_against(self, truth: Mapping[str, object]) -> float:
        """Fraction of data items resolved to the true value."""
        if not truth:
            return 1.0
        correct = sum(
            1
            for item, value in truth.items()
            if self.values.get(item) == value
        )
        return correct / len(truth)


def _index(claims: Sequence[Claim]):
    by_item: dict[str, dict[object, set[str]]] = defaultdict(lambda: defaultdict(set))
    by_source: dict[str, list[Claim]] = defaultdict(list)
    for claim in claims:
        by_item[claim.data_item][claim.value].add(claim.source)
        by_source[claim.source].append(claim)
    return by_item, by_source


def majority_baseline(claims: Sequence[Claim]) -> TruthResult:
    """Plain voting: the baseline every truth-discovery model must beat."""
    if not claims:
        raise FusionError("no claims to resolve")
    by_item, by_source = _index(claims)
    values: dict[str, object] = {}
    confidences: dict[str, float] = {}
    for item, value_sources in by_item.items():
        best = max(value_sources, key=lambda v: len(value_sources[v]))
        values[item] = best
        total = sum(len(s) for s in value_sources.values())
        confidences[item] = len(value_sources[best]) / total
    trust = {source: 0.5 for source in by_source}
    return TruthResult(values, confidences, trust, iterations=0)


def _value_similarity(a: object, b: object) -> float:
    try:
        fa, fb = float(a), float(b)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
    denominator = max(abs(fa), abs(fb))
    if denominator == 0:
        return 1.0
    return max(0.0, 1.0 - abs(fa - fb) / denominator)


class TruthFinder:
    """The iterative trust fixpoint of Yin et al. (TKDE 2008), simplified.

    Source trustworthiness is the mean confidence of its claims; a claim's
    confidence pools the trust of its supporting sources (in log space, as
    in the paper) plus an implication bonus from numerically similar
    claims, squashed back to (0, 1).
    """

    def __init__(
        self, implication_weight: float = 0.5, max_iterations: int = 20
    ) -> None:
        self.implication_weight = implication_weight
        self.max_iterations = max_iterations

    def run(self, claims: Sequence[Claim]) -> TruthResult:
        """Resolve all data items in ``claims``."""
        if not claims:
            raise FusionError("no claims to resolve")
        by_item, by_source = _index(claims)
        trust = {source: 0.8 for source in by_source}

        claim_confidence: dict[tuple[str, object], float] = {}
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Claim confidence from source trust.
            for item, value_sources in by_item.items():
                raw_scores: dict[object, float] = {}
                for value, sources in value_sources.items():
                    score = -sum(
                        math.log(max(1e-9, 1.0 - _TF_DAMPENING * trust[s]))
                        for s in sources
                    )
                    raw_scores[value] = score
                # Implication between similar values.
                adjusted: dict[object, float] = {}
                for value, score in raw_scores.items():
                    bonus = sum(
                        other_score * _value_similarity(value, other)
                        for other, other_score in raw_scores.items()
                        if other != value
                    )
                    adjusted[value] = score + self.implication_weight * bonus
                for value, score in adjusted.items():
                    claim_confidence[(item, value)] = 1.0 - math.exp(-score)

            # Source trust from claim confidence.
            new_trust = {}
            for source, source_claims in by_source.items():
                confs = [
                    claim_confidence[(claim.data_item, claim.value)]
                    for claim in source_claims
                ]
                new_trust[source] = sum(confs) / len(confs)
            delta = max(
                abs(new_trust[s] - trust[s]) for s in trust
            )
            trust = new_trust
            if delta < _TF_TOLERANCE:
                break

        values: dict[str, object] = {}
        confidences: dict[str, float] = {}
        for item, value_sources in by_item.items():
            best = max(
                value_sources, key=lambda v: claim_confidence[(item, v)]
            )
            values[item] = best
            confidences[item] = claim_confidence[(item, best)]
        return TruthResult(values, confidences, trust, iterations)


class AccuEM:
    """EM estimation of source accuracy with a single true value per item.

    E-step: P(value is true) from current source accuracies (a source votes
    its accuracy for its claim and spreads the remaining mass over the
    other observed values).  M-step: source accuracy is the mean
    probability of its claims.  Converges in a handful of iterations on
    wrangling-sized inputs.
    """

    def run(
        self,
        claims: Sequence[Claim],
        weights: Mapping[str, float] | None = None,
    ) -> TruthResult:
        """Resolve all data items in ``claims``.

        ``weights`` scales each source's log-likelihood contribution in
        the E-step (1.0 for a source it does not name).  With
        :func:`detect_copying`'s independence weights, a bloc of k mutual
        copiers contributes like ~1 source instead of k, which defuses
        experiment E9's coherent-stale-feed trap.
        """
        if not claims:
            raise FusionError("no claims to resolve")
        by_item, by_source = _index(claims)
        weights = weights or {}
        weight = {source: weights.get(source, 1.0) for source in by_source}
        accuracy = {source: 0.8 for source in by_source}

        item_probs: dict[str, dict[object, float]] = {}
        iterations = 0
        for iterations in range(1, _EM_MAX_ITERATIONS + 1):
            # E-step: value probabilities per item.
            for item, value_sources in by_item.items():
                n_values = len(value_sources)
                scores: dict[object, float] = {}
                for value in value_sources:
                    log_score = 0.0
                    for other_value, sources in value_sources.items():
                        for source in sources:
                            acc = min(max(accuracy[source], 1e-6), 1 - 1e-6)
                            if other_value == value:
                                term = math.log(acc)
                            else:
                                spread = (1.0 - acc) / max(1, n_values - 1)
                                term = math.log(max(spread, 1e-9))
                            log_score += weight[source] * term
                    scores[value] = log_score
                peak = max(scores.values())
                exp_scores = {
                    value: math.exp(score - peak) for value, score in scores.items()
                }
                total = sum(exp_scores.values())
                item_probs[item] = {
                    value: score / total for value, score in exp_scores.items()
                }

            # M-step: smoothed, capped source accuracies.
            new_accuracy = {}
            for source, source_claims in by_source.items():
                probs = [
                    item_probs[claim.data_item][claim.value]
                    for claim in source_claims
                ]
                smoothed = (sum(probs) + 0.5 * _EM_PRIOR_STRENGTH) / (
                    len(probs) + _EM_PRIOR_STRENGTH
                )
                new_accuracy[source] = min(smoothed, _EM_ACCURACY_CAP)
            delta = max(abs(new_accuracy[s] - accuracy[s]) for s in accuracy)
            accuracy = new_accuracy
            if delta < _EM_TOLERANCE:
                break

        values: dict[str, object] = {}
        confidences: dict[str, float] = {}
        for item, probs in item_probs.items():
            best = max(probs, key=lambda v: probs[v])
            values[item] = best
            confidences[item] = probs[best]
        return TruthResult(values, confidences, accuracy, iterations)


@dataclass
class CopyReport:
    """Pairwise dependence scores and per-source independence weights."""

    dependence: dict[tuple[str, str], float]
    independence_weight: dict[str, float]


def detect_copying(
    claims: Sequence[Claim],
    trusted: Mapping[str, object] | None = None,
) -> CopyReport:
    """Estimate which sources copy one another.

    Two coherent blocs of sources are *unidentifiable* from claims alone —
    a lying majority looks exactly like an honest one (this is why
    experiment E9's plain EM collapses).  The wrangler therefore anchors
    on whatever trusted items exist: ``trusted`` maps a few data items to
    verified values (from master data or consolidated user feedback —
    Section 2.3's "use all the available information").

    A pair's dependence is its mutual agreement rate scaled by both
    sources' *untrustworthiness* on the anchored items: high agreement
    between two demonstrably inaccurate sources can only be copying,
    while agreement between accurate sources is just both being right.
    Each source's independence weight is ``1 / (1 + Σ dependence)``, so a
    bloc of k mutual copiers votes with roughly the strength of one.

    Without ``trusted``, all accuracies fall back to a default of 0.7
    and the detector degrades to a mild agreement-based discount —
    honest, but unable to break a coherent majority.
    """
    by_item: dict[str, dict[str, object]] = defaultdict(dict)
    for claim in claims:
        by_item[claim.data_item][claim.source] = claim.value

    sources = sorted({claim.source for claim in claims})

    anchored_accuracy: dict[str, float] = {}
    for source in sources:
        if not trusted:
            anchored_accuracy[source] = _COPY_DEFAULT_ACCURACY
            continue
        checked = 0
        correct = 0
        for item, value in trusted.items():
            claimed = by_item.get(item, {}).get(source)
            if claimed is None:
                continue
            checked += 1
            if claimed == value:
                correct += 1
        anchored_accuracy[source] = (
            (correct + 1) / (checked + 2) if checked else _COPY_DEFAULT_ACCURACY
        )

    dependence: dict[tuple[str, str], float] = {}
    for left, right in itertools.combinations(sources, 2):
        co_covered = 0
        agreed = 0
        for votes in by_item.values():
            if left not in votes or right not in votes:
                continue
            co_covered += 1
            if votes[left] == votes[right]:
                agreed += 1
        if co_covered == 0:
            dependence[(left, right)] = 0.0
            continue
        agreement = agreed / co_covered
        untrustworthiness = (1.0 - anchored_accuracy[left]) * (
            1.0 - anchored_accuracy[right]
        )
        # Independent sources agree through shared *truth*; agreement in
        # excess of what their accuracies predict is dependence.
        expected = anchored_accuracy[left] * anchored_accuracy[right]
        excess = max(0.0, agreement - expected)
        dependence[(left, right)] = min(1.0, 4.0 * excess * untrustworthiness ** 0.5)

    independence_weight: dict[str, float] = {}
    for source in sources:
        total_dependence = sum(
            score for pair, score in dependence.items() if source in pair
        )
        independence_weight[source] = 1.0 / (1.0 + total_dependence)
    return CopyReport(dependence, independence_weight)
