"""The autonomic planner: composing the pipeline from the contexts.

Section 4.2: "the requirements of automation, refined on a pay-as-you-go
basis taking into account the user context, is at odds with a hard-wired,
user-specified data manipulation workflow ... Such an approach requires an
autonomic approach to data wrangling, in which self-configuration is more
central to the architecture than in self-managing databases."

Nothing in the wrangler is hand-wired: the planner reads the user context
(weights, floors, budget), the data context (is there an ontology?
reference data? master data?), and the current working-data beliefs
(source annotations, reliabilities) and decides

* which sources to access (budgeted marginal-gain selection),
* which matching evidence channels to enable,
* the ER match threshold (precision- vs recall-leaning),
* the fusion strategy per quality emphasis,
* whether to run constraint repair.

Every decision carries a human-readable rationale — autonomic must not
mean inscrutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.model.annotations import AnnotationStore, Dimension
from repro.resolution.comparison import TRANSIENT_DTYPES
from repro.selection.source_selection import SourceSelector
from repro.sources.registry import SourceRegistry

__all__ = ["WranglePlan", "AutonomicPlanner"]


@dataclass
class WranglePlan:
    """Everything the pipeline needs to configure itself."""

    sources: list[str]
    matcher_channels: tuple[str, ...]
    match_threshold: float
    er_threshold: float
    fusion_strategy: str
    fusion_overrides: dict[str, str] = field(default_factory=dict)
    #: Target attributes entity resolution compares on; empty means "let
    #: the comparator derive its own set from the schema".
    er_attributes: tuple[str, ...] = ()
    run_repair: bool = True
    rationale: list[str] = field(default_factory=list)

    def explain(self) -> str:
        """The plan's decisions with their reasons, one per line."""
        return "\n".join(self.rationale)


class AutonomicPlanner:
    """Derives a :class:`WranglePlan` from contexts and working data."""

    def __init__(self, selector: SourceSelector | None = None) -> None:
        self.selector = selector or SourceSelector()

    def plan(
        self,
        user: UserContext,
        data: DataContext,
        registry: SourceRegistry,
        annotations: AnnotationStore,
    ) -> WranglePlan:
        """Compose the pipeline configuration for this user, now."""
        rationale: list[str] = [f"planning for {user.describe()}"]

        # 1. Sources: budgeted marginal-gain selection over current beliefs.
        # An accuracy-leaning context values redundancy — agreement between
        # independent sources is how fused accuracy is bought — so the
        # per-item gain is scaled up with the accuracy weight, letting the
        # greedy selection keep cross-checking sources it would otherwise
        # judge unprofitable on coverage alone.
        profiles = SourceSelector.profiles_from_registry(registry, annotations)
        redundancy_bonus = 1.0 + 2.0 * user.weight(Dimension.ACCURACY)
        self.selector.gain_per_item = redundancy_bonus
        if user.budget != float("inf"):
            selection = self.selector.select(profiles, budget=user.budget)
            sources = selection.selected
            rationale.append(
                f"selected {len(sources)}/{len(profiles)} sources by marginal "
                f"gain under budget {user.budget:.1f} "
                f"(gain {selection.final_gain:.1f}, cost {selection.total_cost:.1f}); "
                f"rejected: {', '.join(selection.rejected) or 'none'}"
            )
        else:
            completeness_leaning = user.weight(Dimension.COMPLETENESS) >= 0.3
            if completeness_leaning:
                sources = [profile.name for profile in profiles]
                rationale.append(
                    "no budget and completeness-leaning context: using all sources"
                )
            else:
                selection = self.selector.select(profiles)
                sources = selection.selected or [
                    profile.name for profile in profiles
                ]
                rationale.append(
                    "no budget: marginal-gain selection dropped sources whose "
                    f"noise outweighs their coverage; kept {len(sources)}/{len(profiles)}"
                )

        # 2. Matching evidence: use everything the data context can feed.
        channels = ["name", "instance"]
        if data.ontology is not None:
            channels.append("ontology")
            rationale.append(
                f"ontology {data.ontology.name!r} present: semantic matching on"
            )
        else:
            rationale.append("no ontology: syntactic + instance matching only")
        channels.append("feedback")
        match_threshold = 0.5 + 0.2 * user.weight(Dimension.ACCURACY)
        rationale.append(
            f"match threshold {match_threshold:.2f} from accuracy weight "
            f"{user.weight(Dimension.ACCURACY):.2f}"
        )

        # 3. ER threshold: precision-leaning contexts merge conservatively;
        # completeness-leaning contexts merge eagerly (recall).
        accuracy_lean = user.weight(Dimension.ACCURACY) - user.weight(
            Dimension.COMPLETENESS
        )
        er_threshold = min(0.95, max(0.75, 0.8 + 0.3 * accuracy_lean))
        rationale.append(
            f"ER threshold {er_threshold:.2f} "
            f"({'precision' if accuracy_lean >= 0 else 'recall'}-leaning)"
        )

        # 4. Fusion strategy from the dominant quality emphasis.
        timeliness = user.weight(Dimension.TIMELINESS)
        accuracy = user.weight(Dimension.ACCURACY)
        if timeliness > accuracy and timeliness > 0.2:
            strategy = "recent"
            rationale.append(
                "timeliness dominates: fusing by most recent observation"
            )
        else:
            strategy = "weighted"
            rationale.append(
                "accuracy dominates: fusing by reliability-weighted vote"
            )
        overrides: dict[str, str] = {}
        # The robust median only pays off when the evidence says sources
        # actually make magnitude errors; against mostly-clean sources it
        # discards reliability information for nothing.
        source_accuracies = [
            annotations.score(f"source:{name}", Dimension.ACCURACY, default=0.7)
            for name in sources
        ]
        mean_accuracy = (
            sum(source_accuracies) / len(source_accuracies)
            if source_accuracies
            else 0.7
        )
        if mean_accuracy < 0.65 and strategy != "recent":
            for attribute in user.target_schema:
                if attribute.dtype.is_numeric():
                    overrides[attribute.name] = "median"
        if overrides:
            rationale.append(
                f"noisy sources (mean accuracy {mean_accuracy:.2f}): numeric "
                "attributes fused by weighted median (robust to magnitude "
                f"errors): {', '.join(sorted(overrides))}"
            )

        # ER comparison keys, declared explicitly so the static type
        # checker can certify them against the translated schema: every
        # non-lineage, non-transient target attribute (URL/DATE/CURRENCY
        # name the observation, not the entity).
        er_attributes = tuple(
            attribute.name
            for attribute in user.target_schema
            if not attribute.name.startswith("_")
            and attribute.dtype not in TRANSIENT_DTYPES
        )

        # 5. Repair: on unless the user explicitly discounts consistency.
        run_repair = user.weight(Dimension.CONSISTENCY) > 0.0 or bool(user.floors)
        rationale.append(
            "constraint repair on" if run_repair else "constraint repair off "
            "(consistency carries no weight in this context)"
        )

        return WranglePlan(
            sources=sources,
            matcher_channels=tuple(channels),
            match_threshold=match_threshold,
            er_threshold=er_threshold,
            fusion_strategy=strategy,
            fusion_overrides=overrides,
            er_attributes=er_attributes,
            run_repair=run_repair,
            rationale=rationale,
        )

    def replan_pays(
        self,
        current: WranglePlan,
        fresh: WranglePlan,
        registry: SourceRegistry,
        annotations: AnnotationStore,
    ) -> bool:
        """Whether shifted beliefs make ``fresh`` worth re-acquiring for.

        Feedback also informs *source selection* (Section 2.4): a plan
        over a different source set replaces the one the current outputs
        were computed with only when its profit (selector gain minus
        access cost, under the current beliefs) beats the old plan's by
        10% plus one unit — the hysteresis keeps near-tie oscillations
        from thrashing the pipeline.
        """
        if set(fresh.sources) == set(current.sources):
            return False
        profiles = {
            profile.name: profile
            for profile in SourceSelector.profiles_from_registry(
                registry, annotations
            )
        }

        def profit(names: list[str]) -> float:
            chosen = [profiles[n] for n in names if n in profiles]
            return self.selector.gain(chosen) - sum(p.cost for p in chosen)

        return profit(fresh.sources) > 1.1 * profit(current.sources) + 1.0
