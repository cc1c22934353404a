"""Field recognisers: regular grammars for common long-tail data fields.

"Recent advances in web data extraction have shown that fully-automated,
large scale collection of long-tail, business-related data, e.g., products,
jobs or locations, is possible" (Section 2.2).  These recognisers spot and
normalise the field types that dominate such data — prices, dates, phone
numbers, postcodes, ratings, geo coordinates — inside noisy extracted text.
They serve three masters: wrapper induction (typing candidate fields),
extraction post-processing, and WADaR-style repair (re-segmenting
mis-extracted values).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.model.schema import DataType

__all__ = ["Recogniser", "RECOGNISERS", "recognise", "best_recogniser", "recogniser"]


@dataclass(frozen=True)
class Recogniser:
    """A named field recogniser.

    ``pattern`` locates the field inside arbitrary text; ``parse`` maps the
    matched text to a normalised Python value.
    """

    name: str
    dtype: DataType
    pattern: re.Pattern[str]
    parse: Callable[[re.Match[str]], object]

    def find(self, text: str) -> object | None:
        """The first normalised occurrence in ``text``, or ``None``."""
        if not text:
            return None
        match = self.pattern.search(text)
        if match is None:
            return None
        return self.parse(match)

    def find_span(self, text: str) -> tuple[int, int] | None:
        """The character span of the first occurrence, or ``None``."""
        if not text:
            return None
        match = self.pattern.search(text)
        return match.span() if match else None

    def matches_fully(self, text: str) -> bool:
        """Whether ``text`` is nothing but this field (modulo whitespace)."""
        if not text:
            return False
        match = self.pattern.fullmatch(text.strip())
        return match is not None


def _parse_rating(match: re.Match[str]) -> float:
    return float(match.group("score"))


def _parse_geo(match: re.Match[str]) -> tuple[float, float]:
    return (float(match.group("lat")), float(match.group("lon")))


def _parse_phone(match: re.Match[str]) -> str:
    return re.sub(r"[\s().-]", "", match.group(0))


_PRICE = Recogniser(
    "price",
    DataType.CURRENCY,
    re.compile(
        r"(?:[$€£¥]|USD|EUR|GBP)\s*(?P<amount>\d{1,3}(?:,\d{3})+(?:\.\d{1,2})?|\d+(?:\.\d{1,2})?)"
        r"|(?P<amount2>\d{1,3}(?:,\d{3})+(?:\.\d{1,2})?|\d+(?:\.\d{1,2})?)\s*(?:[$€£¥]|USD|EUR|GBP)"
    ),
    lambda m: float(
        (m.group("amount") or m.group("amount2")).replace(",", "")
    ),
)

_DATE = Recogniser(
    "date",
    DataType.DATE,
    re.compile(
        r"\b(\d{4}-\d{2}-\d{2}|\d{1,2}/\d{1,2}/\d{4}|"
        r"(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)[a-z]* \d{1,2},? \d{4})\b"
    ),
    lambda m: m.group(0),
)

_PHONE = Recogniser(
    "phone",
    DataType.STRING,
    re.compile(r"(?:\+?\d{1,3}[\s.-]?)?(?:\(\d{2,4}\)[\s.-]?)?\d{3,4}[\s.-]\d{3,7}(?:[\s.-]\d{3,4})?"),
    _parse_phone,
)

_UK_POSTCODE = Recogniser(
    "uk_postcode",
    DataType.STRING,
    re.compile(r"\b[A-Z]{1,2}\d{1,2}[A-Z]?\s*\d[A-Z]{2}\b"),
    lambda m: re.sub(r"\s+", " ", m.group(0)),
)

_EMAIL = Recogniser(
    "email",
    DataType.STRING,
    re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.]+\b"),
    lambda m: m.group(0).lower(),
)

_URL = Recogniser(
    "url",
    DataType.URL,
    re.compile(r"https?://[^\s\"'<>]+"),
    lambda m: m.group(0),
)

_RATING = Recogniser(
    "rating",
    DataType.FLOAT,
    re.compile(r"(?P<score>[0-5](?:\.\d)?)\s*(?:/\s*5|stars?|★)", re.IGNORECASE),
    _parse_rating,
)

_GEO = Recogniser(
    "geo",
    DataType.GEO,
    re.compile(
        r"(?P<lat>[+-]?\d{1,2}\.\d{3,8})\s*,\s*(?P<lon>[+-]?\d{1,3}\.\d{3,8})"
    ),
    _parse_geo,
)

#: All built-in recognisers, most specific first — order matters when
#: several recognisers could claim the same text.
RECOGNISERS: tuple[Recogniser, ...] = (
    _URL,
    _EMAIL,
    _GEO,
    _PRICE,
    _RATING,
    _DATE,
    _UK_POSTCODE,
    _PHONE,
)

_BY_NAME = {r.name: r for r in RECOGNISERS}


def recogniser(name: str) -> Recogniser:
    """The built-in recogniser called ``name``."""
    if name not in _BY_NAME:
        raise KeyError(f"no recogniser named {name!r}")
    return _BY_NAME[name]


def recognise(text: str) -> dict[str, object]:
    """All fields any recogniser finds in ``text``, keyed by recogniser name."""
    found: dict[str, object] = {}
    for rec in RECOGNISERS:
        value = rec.find(text)
        if value is not None:
            found[rec.name] = value
    return found


def best_recogniser(values: list[str]) -> Recogniser | None:
    """The recogniser that fully matches the majority of ``values``.

    Used during wrapper induction to type a candidate field from sample
    values; returns ``None`` when no recogniser claims more than half.
    """
    non_empty = [v for v in values if v and v.strip()]
    if not non_empty:
        return None
    best: Recogniser | None = None
    best_hits = 0
    for rec in RECOGNISERS:
        hits = sum(1 for v in non_empty if rec.matches_fully(v))
        if hits > best_hits:
            best, best_hits = rec, hits
    if best is not None and best_hits * 2 > len(non_empty):
        return best
    return None
