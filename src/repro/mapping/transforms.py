"""Value transforms for mappings, and transform *suggestion*.

A correspondence says which source attribute feeds which target attribute;
a transform says how the values must be reshaped on the way (Variety is
about formats as much as names).  This module provides the common
reshaping functions as named, composable transforms, plus
:func:`suggest_transform`, which inspects sample values and proposes the
transform that makes them coercible to the target type — so mapping
generation can repair format mismatches automatically instead of leaving
low-confidence raw values behind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import TypeInferenceError
from repro.extraction.patterns import recogniser
from repro.model.schema import Attribute, DataType, coerce

__all__ = ["Transform", "TRANSFORMS", "suggest_transform"]


@dataclass(frozen=True)
class Transform:
    """A named, documented value transform."""

    name: str
    fn: Callable[[object], object]
    description: str

    def __call__(self, value: object) -> object:
        if value is None:
            return None
        return self.fn(value)


def _strip_html(value: object) -> object:
    return re.sub(r"<[^>]+>", " ", str(value)).strip()


def _collapse_whitespace(value: object) -> object:
    return " ".join(str(value).split())


def _extract_price(value: object) -> object:
    found = recogniser("price").find(str(value))
    return found if found is not None else value


def _extract_date(value: object) -> object:
    found = recogniser("date").find(str(value))
    return found if found is not None else value


def _extract_url(value: object) -> object:
    found = recogniser("url").find(str(value))
    return found if found is not None else value


def _extract_geo(value: object) -> object:
    found = recogniser("geo").find(str(value))
    return found if found is not None else value


def _thousands(value: object) -> object:
    try:
        return float(value) * 1000.0  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return value


TRANSFORMS: dict[str, Transform] = {
    t.name: t
    for t in (
        Transform("strip_html", _strip_html, "remove HTML tags"),
        Transform("collapse_whitespace", _collapse_whitespace,
                  "normalise runs of whitespace"),
        Transform("extract_price", _extract_price,
                  "pull the price out of surrounding text"),
        Transform("extract_date", _extract_date,
                  "pull the date out of surrounding text"),
        Transform("extract_url", _extract_url,
                  "pull the URL out of surrounding text"),
        Transform("extract_geo", _extract_geo,
                  "pull the lat/lon pair out of surrounding text"),
        Transform("thousands", _thousands,
                  "multiply by 1000 (salary given in k)"),
    )
}


_EXTRACTOR_FOR_DTYPE = {
    DataType.CURRENCY: "extract_price",
    DataType.DATE: "extract_date",
    DataType.URL: "extract_url",
    DataType.GEO: "extract_geo",
}


def _coercible_fraction(
    values: Sequence[object], dtype: DataType, transform: Transform | None
) -> float:
    present = [v for v in values if v is not None and str(v).strip()]
    if not present:
        return 0.0
    ok = 0
    for value in present:
        candidate = transform(value) if transform is not None else value
        try:
            coerce(candidate, dtype)
        except TypeInferenceError:
            continue
        ok += 1
    return ok / len(present)


def suggest_transform(
    values: Sequence[object],
    target: Attribute,
    min_gain: float = 0.2,
) -> Transform | None:
    """Propose the transform that makes sample values fit the target type.

    Candidates are tried in order of specificity; a transform is suggested
    only when it raises the coercible fraction by at least ``min_gain``
    over using the raw values — no transform is better than a pointless
    one.  Returns ``None`` when the values already fit (or nothing helps).
    """
    baseline = _coercible_fraction(values, target.dtype, None)
    if baseline >= 0.95:
        return None
    candidates: list[str] = []
    extractor = _EXTRACTOR_FOR_DTYPE.get(target.dtype)
    if extractor is not None:
        candidates.append(extractor)
    if target.dtype.is_numeric():
        candidates.append("thousands")
    if target.dtype is DataType.STRING:
        candidates.extend(["strip_html", "collapse_whitespace"])
    best: Transform | None = None
    best_fraction = baseline
    for name in candidates:
        transform = TRANSFORMS[name]
        fraction = _coercible_fraction(values, target.dtype, transform)
        if fraction > best_fraction:
            best, best_fraction = transform, fraction
    if best is not None and best_fraction - baseline >= min_gain:
        return best
    return None
