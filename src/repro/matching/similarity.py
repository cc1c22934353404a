"""String and value similarity measures used across matching and resolution.

All measures return scores in ``[0, 1]``, score 1.0 on identical non-empty
inputs, and are symmetric — the first two the test suite enforces exactly,
symmetry only to ``approx`` (greedy Jaro alignment can differ in the last
bits between ``(a, b)`` and ``(b, a)``) — so they can be pooled as evidence
(Section 2.3) without per-measure calibration.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable, Sequence

__all__ = [
    "levenshtein",
    "levenshtein_similarity",
    "jaro",
    "jaro_winkler",
    "jaccard",
    "dice",
    "token_set",
    "tfidf_cosine",
    "monge_elkan",
    "NameScores",
    "numeric_similarity",
    "name_similarity",
]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Tokens that carry no identity signal in entity names.
_STOPWORDS = frozenset(
    {"the", "a", "an", "of", "and", "at", "in", "on", "for", "ltd", "inc", "co"}
)

#: Bounded memo cache keyed by the raw string — the tokenisation
#: identity of a record attribute value.  Entity resolution compares
#: each record against many candidates, so without it every record's
#: value is re-tokenised once *per pair* instead of once per resolver
#: pass (the regression test pins the once-per-record contract).  FIFO
#: eviction at a fixed bound keeps long-running processes flat.  (The
#: Monge–Elkan name tokens are not cached here: the resolve that tokenised
#: them owns them, in :class:`NameScores`, and hands the next resolve only
#: what it touched.)
_CACHE_LIMIT = 4096
_token_set_cache: dict[str, frozenset[str]] = {}


def _cache_put(cache: dict, key: str, value) -> None:
    if len(cache) >= _CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = value


#: Memoised document frequencies keyed by corpus identity.  A matching
#: pass calls :func:`tfidf_cosine` once per candidate pair against the
#: *same* corpus object, and recomputing the document-frequency Counter
#: is O(corpus) per call — quadratic overall.  Each entry keeps a strong
#: reference to the corpus itself so a recycled ``id()`` can never alias
#: a dead corpus to a live one's table; the bound is small because a
#: pass compares against a handful of corpora, not thousands.
_IDF_CACHE_LIMIT = 8
_idf_cache: dict[int, tuple[object, Counter]] = {}


def _doc_frequencies(corpus: Sequence[Sequence[str]]) -> Counter:
    """Document frequency of every token in ``corpus`` (memoised)."""
    entry = _idf_cache.get(id(corpus))
    if entry is not None and entry[0] is corpus:
        return entry[1]
    doc_freq: Counter[str] = Counter()
    for doc in corpus:
        doc_freq.update(set(doc))
    if len(_idf_cache) >= _IDF_CACHE_LIMIT:
        _idf_cache.pop(next(iter(_idf_cache)))
    _idf_cache[id(corpus)] = (corpus, doc_freq)
    return doc_freq


def token_set(text: str) -> frozenset[str]:
    """Lower-cased alphanumeric tokens of ``text`` (memoised)."""
    cached = _token_set_cache.get(text)
    if cached is None:
        cached = frozenset(_TOKEN_RE.findall(text.lower()))
        _cache_put(_token_set_cache, text, cached)
    return cached


def _name_tokens(text: str) -> tuple[str, ...]:
    """Ordered, stopword-stripped name tokens of ``text``.

    The Monge–Elkan tokenisation: order preserved (unlike
    :func:`token_set`), stopwords dropped unless the name is made only
    of them.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    kept = [t for t in tokens if t not in _STOPWORDS]
    return tuple(kept or tokens)


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert / delete / substitute, unit costs)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(
                    previous[j] + 1,        # deletion
                    current[j - 1] + 1,     # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalised to a ``[0, 1]`` similarity."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity — robust to transpositions in short strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    matched_a = [False] * len(a)
    matched_b = [False] * len(b)
    matches = 0
    for i, char in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if matched_b[j] or b[j] != char:
                continue
            matched_a[i] = matched_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, was_matched in enumerate(matched_a):
        if not was_matched:
            continue
        while not matched_b[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro–Winkler: Jaro boosted by a shared prefix (up to 4 chars)."""
    base = jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard overlap of two token collections."""
    set_a, set_b = frozenset(a), frozenset(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def dice(a: Iterable[str], b: Iterable[str]) -> float:
    """Sørensen–Dice coefficient of two token collections."""
    set_a, set_b = frozenset(a), frozenset(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def tfidf_cosine(
    doc_a: Sequence[str], doc_b: Sequence[str], corpus: Sequence[Sequence[str]]
) -> float:
    """Cosine similarity of two token sequences under corpus IDF weights.

    ``corpus`` is the collection of token sequences the IDF is computed
    over (typically all values of the two columns being compared); rare
    tokens dominate, so shared brand/model tokens count more than shared
    stop words.  The IDF table is memoised per corpus *identity* — pass
    the same corpus object for a whole matching pass (and a fresh object
    after mutating it) to get one O(corpus) scan instead of one per pair.
    """
    if not doc_a and not doc_b:
        return 1.0
    if not doc_a or not doc_b:
        return 0.0
    n_docs = max(len(corpus), 1)
    doc_freq = _doc_frequencies(corpus)

    def vectorise(doc: Sequence[str]) -> dict[str, float]:
        counts = Counter(doc)
        return {
            token: count * math.log((1 + n_docs) / (1 + doc_freq.get(token, 0)))
            for token, count in counts.items()
        }

    vec_a, vec_b = vectorise(doc_a), vectorise(doc_b)
    dot = sum(weight * vec_b.get(token, 0.0) for token, weight in vec_a.items())
    norm_a = math.sqrt(sum(w * w for w in vec_a.values()))
    norm_b = math.sqrt(sum(w * w for w in vec_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0 if vec_a == vec_b else 0.0
    return max(0.0, min(1.0, dot / (norm_a * norm_b)))


class NameScores:
    """Monge–Elkan behind lazily filled tables, for whoever compares many
    names drawn from one small vocabulary (one entity-resolution pass).

    Product titles share brand, category and unit words, and
    :meth:`score` aligns every token of one name against every token of
    the other in both directions — so the same ``(token, token)`` pair
    is scored thousands of times per pass.  An instance tokenises each
    distinct name once, digit-classifies each distinct token once, and
    scores each **ordered** token pair once: greedy Jaro alignment is
    only symmetric to the last few bits, and every score must stay the
    float the unshared computation returns, so ``(a, b)`` never answers
    for ``(b, a)``.  The tables only ever grow; their owner decides how
    long they live (there is deliberately no module-level instance).

    An instance built on ``previous`` reads through to that instance's
    name-token and token-pair tables: a miss is looked up there before it
    is computed, and is entered in this instance's tables either way (the
    digit test is cheaper than the look-up, so it is never carried).
    Every entry is a pure
    function of its key, so a carried entry is the float a fresh
    computation returns.  After :meth:`detach` the instance holds
    exactly what was asked of it, and ``previous`` can be collected.
    """

    def __init__(self, previous: "NameScores | None" = None) -> None:
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._codes: dict[str, bool] = {}
        self._pairs: dict[tuple[str, str], float] = {}
        self._previous = previous

    def detach(self) -> None:
        """Stop reading through to the instance this one was built on."""
        self._previous = None

    def _carried(self, table: str, key):
        """``key``'s entry in the previous instance's ``table``, or None."""
        previous = self._previous
        return None if previous is None else getattr(previous, table).get(key)

    def tokens(self, text: str) -> tuple[str, ...]:
        """The name tokens of ``text`` (see :func:`_name_tokens`)."""
        tokens = self._tokens.get(text)
        if tokens is None:
            tokens = self._carried("_tokens", text)
            if tokens is None:
                tokens = _name_tokens(text)
            self._tokens[text] = tokens
        return tokens

    def is_code(self, token: str) -> bool:
        """Whether ``token`` carries a digit (a model number, a house
        number, a postcode fragment) and so only ever matches itself."""
        code = self._codes.get(token)
        if code is None:
            code = self._codes[token] = any(c.isdigit() for c in token)
        return code

    def token_score(self, left: str, right: str) -> float:
        """How far ``left`` accounts for ``right``, token to token."""
        pair = (left, right)
        score = self._pairs.get(pair)
        if score is None:
            score = self._carried("_pairs", pair)
            if score is None:
                score = self._align(left, right)
            self._pairs[pair] = score
        return score

    def _align(self, left: str, right: str) -> float:
        """The score :meth:`token_score` tables, computed."""
        if self.is_code(left) or self.is_code(right):
            # Two different codes are different things, however many
            # characters they share.
            return 1.0 if left == right else 0.0
        score = jaro_winkler(left, right)
        # A word either IS the other word (with typos — scores near 1) or
        # it is a different word; mid-range Jaro between distinct words
        # ("engineer"/"scientist" ≈ 0.55) is noise, not half a match.
        return 0.3 * score if score < 0.85 else score

    def score(self, a: str, b: str, combine: str = "mean") -> float:
        """:func:`monge_elkan` of ``a`` and ``b`` off the shared tables."""
        if combine not in ("mean", "min"):
            raise ValueError(
                f"unknown combine {combine!r}; known: 'mean', 'min'"
            )
        tokens_a = self.tokens(a)
        tokens_b = self.tokens(b)
        if not tokens_a and not tokens_b:
            return 1.0
        if not tokens_a or not tokens_b:
            return 0.0
        token_score = self.token_score

        def directed(src: Sequence[str], dst: Sequence[str]) -> float:
            return sum(
                max(token_score(token, other) for other in dst)
                for token in src
            ) / len(src)

        forward = directed(tokens_a, tokens_b)
        backward = directed(tokens_b, tokens_a)
        if combine == "min":
            return min(forward, backward)
        return (forward + backward) / 2.0


def monge_elkan(a: str, b: str, combine: str = "mean") -> float:
    """Symmetric Monge–Elkan similarity: tokens aligned by best Jaro–Winkler.

    Designed for entity names like product titles: a typo in one token
    barely dents the score, but a different model token ("Pro 123" vs
    "Max 999") pulls it down hard — exactly the separation whole-string
    measures lose on long names with shared prefixes.

    ``combine`` chooses how the two directed scores merge: ``"mean"``
    (default) is containment-friendly ("Acme TV" matches "Acme TV 42-inch"
    well); ``"min"`` demands that *both* names account for each other's
    tokens, which separates "QA Analyst" from "Junior QA Analyst" — use it
    for low-cardinality identity fields where one extra word means a
    different entity.  Anything else raises ``ValueError``.

    One pair off fresh tables: nothing is remembered between calls, so
    a loop over this function (or over ``comparator.similarity`` /
    ``vector`` with a ``tokens`` measure, outside a resolve's
    ``ScoringContext``) tokenises both names again for every pair.  A
    caller comparing many names holds a :class:`NameScores` and asks it
    instead.
    """
    return NameScores().score(a, b, combine)


def numeric_similarity(a: float, b: float) -> float:
    """Relative closeness of two numbers (1.0 when equal)."""
    if a == b:
        return 1.0
    denominator = max(abs(a), abs(b))
    if denominator == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / denominator)


def name_similarity(a: str, b: str) -> float:
    """Similarity of two attribute/entity *names*.

    Combines token overlap (for multi-word names like ``offer_price`` vs
    ``price``) with Jaro–Winkler on the compacted strings (for
    abbreviations like ``cat`` vs ``category``), taking the max — either
    signal alone is enough for a name to be considered close.
    """
    norm_a = " ".join(sorted(token_set(a)))
    norm_b = " ".join(sorted(token_set(b)))
    if not norm_a or not norm_b:
        return 0.0
    if norm_a == norm_b:
        return 1.0
    overlap = jaccard(token_set(a), token_set(b))
    compact_a = norm_a.replace(" ", "")
    compact_b = norm_b.replace(" ", "")
    string_sim = jaro_winkler(compact_a, compact_b)
    containment = 0.0
    shorter_name, longer_name = sorted((a, b), key=lambda s: len("".join(token_set(s))))
    shorter = "".join(sorted(token_set(shorter_name)))
    longer_tokens = token_set(longer_name)
    if (
        len(shorter) >= 3
        and shorter not in longer_tokens  # whole-token overlap is jaccard's job
        and any(token.startswith(shorter) for token in longer_tokens)
    ):
        # Abbreviation: "cat" -> "category", "desc" -> "description".
        longest = max(len(t) for t in longer_tokens)
        containment = 0.75 + 0.25 * len(shorter) / longest
    return max(overlap, string_sim, containment)
