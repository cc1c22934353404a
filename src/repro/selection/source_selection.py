"""Source selection under a budget: "Less is More" (Dong et al., PVLDB'12).

Section 2.1 cites "selecting sources based on their anticipated financial
value [16]" as the kind of informed compromise wrangling needs.  Adding a
source costs money and adds coverage *and* noise; past some point the
marginal gain of one more source is below its marginal cost.  The selector
estimates the integration gain of a source set with a fusion-aware model
and picks sources greedily by marginal profit, stopping at the crossover —
so it can (and does, in experiment E8) decide that fewer sources are
better.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import SourceError
from repro.model.annotations import AnnotationStore, Dimension
from repro.sources.registry import SourceRegistry

if TYPE_CHECKING:  # typing only
    from repro.obs import MetricsRegistry

__all__ = ["SourceProfile", "SelectionStep", "SelectionResult", "SourceSelector"]


@dataclass(frozen=True)
class SourceProfile:
    """What selection needs to know about one candidate source."""

    name: str
    coverage: float
    accuracy: float
    cost: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise SourceError("coverage must be in [0,1]")
        if not 0.0 <= self.accuracy <= 1.0:
            raise SourceError("accuracy must be in [0,1]")
        if self.cost < 0:
            raise SourceError("cost must be non-negative")


@dataclass(frozen=True)
class SelectionStep:
    """One greedy step: what was added and what it bought."""

    source: str
    gain_before: float
    gain_after: float
    cost: float

    @property
    def marginal_gain(self) -> float:
        """The gain this step added."""
        return self.gain_after - self.gain_before

    @property
    def marginal_profit(self) -> float:
        """Gain minus cost for this step."""
        return self.marginal_gain - self.cost


@dataclass
class SelectionResult:
    """The selected set and the full greedy trajectory."""

    selected: list[str]
    steps: list[SelectionStep]
    final_gain: float
    total_cost: float
    rejected: list[str] = field(default_factory=list)

    @property
    def profit(self) -> float:
        """Final gain minus total cost."""
        return self.final_gain - self.total_cost


def _copy(result: SelectionResult) -> SelectionResult:
    """``result`` with lists of its own (its steps are immutable)."""
    return replace(
        result,
        selected=list(result.selected),
        steps=list(result.steps),
        rejected=list(result.rejected),
    )


class SourceSelector:
    """Greedy marginal-profit source selection with a fusion-aware gain.

    ``gain_per_item`` converts "one correctly integrated item" into cost
    units; ``n_samples`` controls the Monte-Carlo estimate of fused
    accuracy under voting (seeded — results are reproducible).
    """

    def __init__(
        self,
        n_items: int = 100,
        gain_per_item: float = 1.0,
        n_samples: int = 300,
        seed: int = 17,
    ) -> None:
        if n_items <= 0:
            raise SourceError("n_items must be positive")
        self.n_items = n_items
        self.gain_per_item = gain_per_item
        self.n_samples = n_samples
        self.seed = seed
        #: Optional registry for the ``selection.memo_hits`` counter.
        self.metrics: "MetricsRegistry | None" = None
        #: The last :meth:`select`: ``(everything it read, its result)``.
        self._last: tuple[tuple, SelectionResult] | None = None

    # -- gain model ------------------------------------------------------

    def gain(self, profiles: list[SourceProfile]) -> float:
        """Expected number of correctly integrated items, in gain units.

        Monte-Carlo over items: each source covers the item with its
        coverage probability and, when covering, reports the truth with its
        accuracy (errors are spread over a small wrong-value space, as in
        the synthetic worlds).  The fused answer is the reliability-
        weighted vote; an uncovered item contributes nothing.

        Each call replays ``random.Random(seed)`` from the start: per
        source a coverage draw, then for a covering source an accuracy
        draw and, for a wrong claim, ``randint(1, 3)``'s two-bit rejection
        draw.  The vote is four running tallies (the truth and three wrong
        values), each with the position of its first claim: a tie goes to
        the value claimed first.
        """
        if not profiles:
            return 0.0
        rng = random.Random(self.seed)
        draw, bits = rng.random, rng.getrandbits
        sources = [
            (position, profile.coverage, profile.accuracy,
             max(profile.accuracy, 0.05))
            for position, profile in enumerate(profiles, 1)
        ]
        correct = 0
        for __ in range(self.n_samples):
            truth = wrong0 = wrong1 = wrong2 = 0.0
            truth_at = at0 = at1 = at2 = 0  # 0: not claimed yet
            for position, coverage, accuracy, weight in sources:
                if draw() >= coverage:
                    continue
                if draw() < accuracy:
                    truth += weight
                    truth_at = truth_at or position
                    continue
                wrong = bits(2)
                while wrong == 3:
                    wrong = bits(2)
                if wrong == 0:
                    wrong0 += weight
                    at0 = at0 or position
                elif wrong == 1:
                    wrong1 += weight
                    at1 = at1 or position
                else:
                    wrong2 += weight
                    at2 = at2 or position
            # Every weight is at least 0.05, so a claimed truth beats an
            # unclaimed value outright.
            if (
                truth_at
                and (truth > wrong0 or truth == wrong0 and truth_at < at0)
                and (truth > wrong1 or truth == wrong1 and truth_at < at1)
                and (truth > wrong2 or truth == wrong2 and truth_at < at2)
            ):
                correct += 1
        expected_fraction = correct / self.n_samples
        return expected_fraction * self.n_items * self.gain_per_item

    # -- greedy selection ---------------------------------------------------

    def select(
        self,
        profiles: list[SourceProfile],
        budget: float = math.inf,
        force_all: bool = False,
        patience: int = 1,
    ) -> SelectionResult:
        """Greedy marginal-profit selection with dip tolerance.

        Stops when candidates stop paying for themselves (unless
        ``force_all``, used by benchmarks to trace the full curve past the
        crossover) or the budget runs out.  Voting-based gain is not
        submodular — a second equal-accuracy source adds ~nothing until a
        third creates a majority — so up to ``patience`` unprofitable
        steps are taken *tentatively*; they are kept only if a later step
        turns profitable again, and rolled back otherwise.

        The selection is a function of the ordered profiles, the arguments
        and the gain model's settings (``gain_per_item`` among them, which
        the planner sets per user): when all of them equal the last call's,
        a copy of its result is returned without re-estimating a gain
        (counted on ``selection.memo_hits``).
        """
        key = (
            tuple(profiles), budget, force_all, patience,
            self.n_items, self.gain_per_item, self.n_samples, self.seed,
        )
        if self._last is not None and self._last[0] == key:
            if self.metrics is not None:
                self.metrics.counter("selection.memo_hits").increment()
            return _copy(self._last[1])
        result = self._select(profiles, budget, force_all, patience)
        self._last = (key, _copy(result))
        return result

    def _select(
        self,
        profiles: list[SourceProfile],
        budget: float,
        force_all: bool,
        patience: int,
    ) -> SelectionResult:
        """The greedy selection :meth:`select` documents, uncached."""
        remaining = list(profiles)
        chosen: list[SourceProfile] = []
        steps: list[SelectionStep] = []
        current_gain = 0.0
        spent = 0.0
        tentative = 0  # trailing unprofitable steps awaiting justification
        while remaining:
            best = None
            best_step = None
            for candidate in remaining:
                new_gain = self.gain(chosen + [candidate])
                step = SelectionStep(
                    candidate.name, current_gain, new_gain, candidate.cost
                )
                if best_step is None or step.marginal_profit > best_step.marginal_profit:
                    best, best_step = candidate, step
            if best is None or best_step is None:
                raise SourceError(
                    "greedy selection found no candidate step although "
                    f"{len(remaining)} profiles remain"
                )
            if spent + best.cost > budget:
                break
            if best_step.marginal_profit <= 0 and not force_all:
                if tentative >= patience:
                    break
                tentative += 1
            else:
                tentative = 0
            chosen.append(best)
            remaining.remove(best)
            steps.append(best_step)
            current_gain = best_step.gain_after
            spent += best.cost
        if tentative and not force_all:
            # The dip never paid off: roll the tentative tail back.
            for __ in range(tentative):
                profile = chosen.pop()
                remaining.append(profile)
                step = steps.pop()
                spent -= step.cost
                current_gain = step.gain_before
        return SelectionResult(
            [profile.name for profile in chosen],
            steps,
            current_gain,
            spent,
            rejected=[profile.name for profile in remaining],
        )

    # -- profile estimation ------------------------------------------------

    @staticmethod
    def profiles_from_registry(
        registry: SourceRegistry,
        annotations: AnnotationStore,
        coverage_default: float = 0.6,
    ) -> list[SourceProfile]:
        """Build selection profiles from current working-data beliefs.

        Accuracy comes from the source's reliability posterior blended with
        accuracy annotations (feedback + quality analyses); coverage from
        completeness annotations when present.
        """
        profiles = []
        for source in registry:
            coverage = annotations.score(
                f"source:{source.name}",
                Dimension.COMPLETENESS,
                default=coverage_default,
            )
            profiles.append(
                SourceProfile(
                    source.name,
                    coverage,
                    registry.trust(source.name, annotations),
                    source.metadata.cost_per_access,
                )
            )
        return profiles
