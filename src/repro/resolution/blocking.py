"""Blocking: cheap candidate-pair generation for entity resolution.

Comparing all record pairs is quadratic; blocking keeps ER tractable at
big-data Volume.  Two classic strategies are provided — token blocking
and MinHash-LSH — both returning **sorted candidate
index arrays** for the comparator: a ``(n, 2)`` ``numpy`` array with
``pairs[:, 0] < pairs[:, 1]``, rows unique and lexicographically sorted.
The array form replaces the old ``set[tuple[int, int]]`` representation:
at a million candidate pairs a Python pair-set costs hundreds of bytes
per pair in tuple/set overhead, while the array costs 16 — and the
vectorised comparison kernels (:mod:`repro.resolution.kernels`) score it
without ever materialising per-pair objects.  Crowd feedback can refine
blocking too (Gokhale et al. [20]); the ER pipeline re-blocks with
tightened parameters when feedback shows recall problems.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ResolutionError
from repro.matching.similarity import token_set
from repro.model.records import Record, Table

if TYPE_CHECKING:  # typing only: blocking never requires a live registry
    from repro.obs import MetricsRegistry

__all__ = [
    "MAX_BLOCK_SIZE",
    "as_pair_set",
    "blocked_pairs",
    "full_pairs",
    "minhash_lsh",
    "pair_array",
    "recall_of",
    "token_blocking",
]

#: Members above which :func:`token_blocking` drops a block as a stop word
#: (its default, and what the static cost model bounds pairs with).
MAX_BLOCK_SIZE = 50

#: The empty candidate set, shaped so callers can index unconditionally.
_EMPTY_PAIRS = np.empty((0, 2), dtype=np.intp)


def pair_array(pairs: object) -> np.ndarray:
    """Normalise candidate pairs to the canonical sorted array form.

    Accepts an ``(n, 2)`` array, any iterable of index pairs, or a legacy
    ``set[tuple[int, int]]`` (custom blockers predating the array form).
    Rows come back oriented ``(low, high)``, deduplicated, and
    lexicographically sorted — the canonical order the kernels rely on.
    Self-pairs ``(i, i)`` are dropped: a record is trivially its own
    entity, never a candidate.
    """
    if isinstance(pairs, np.ndarray):
        array = pairs
    else:
        array = np.asarray(sorted(pairs) if isinstance(pairs, (set, frozenset))
                           else list(pairs), dtype=np.intp)
    if array.size == 0:
        return _EMPTY_PAIRS
    array = array.reshape(-1, 2).astype(np.intp, copy=False)
    low = np.minimum(array[:, 0], array[:, 1])
    high = np.maximum(array[:, 0], array[:, 1])
    oriented = np.column_stack((low, high))
    oriented = oriented[low != high]
    if oriented.shape[0] == 0:
        return _EMPTY_PAIRS
    return np.unique(oriented, axis=0)


def as_pair_set(pairs: object) -> set[tuple[int, int]]:
    """The ``set[tuple[int, int]]`` view of a candidate-pair array.

    The interop shim for callers that still want set algebra (recall
    evaluation, tests); the hot path never expands the array.
    """
    return {(int(i), int(j)) for i, j in pairs}


def full_pairs(table: Table) -> np.ndarray:
    """All index pairs — the quadratic baseline blocking."""
    n = len(table)
    if n < 2:
        return _EMPTY_PAIRS
    left, right = np.triu_indices(n, k=1)
    return np.column_stack((left, right)).astype(np.intp, copy=False)


def _pairs_of_blocks(blocks: Iterable[Sequence[int]], n: int) -> np.ndarray:
    """Every index pair inside any of ``blocks``, in canonical array form.

    Each block lists the indices (below ``n``) of its members in
    ascending order.  Blocks of one size are stacked into one matrix and
    paired by one ``triu_indices``; each pair ``(low, high)`` is encoded
    as ``low * n + high``, so one 1-D ``np.unique`` over every size's
    codes both deduplicates the pairs and sorts them lexicographically.
    """
    by_size: dict[int, list[Sequence[int]]] = {}
    for members in blocks:
        if len(members) >= 2:
            by_size.setdefault(len(members), []).append(members)
    if not by_size:
        return _EMPTY_PAIRS
    codes = []
    for size, same_size in by_size.items():
        matrix = np.asarray(same_size, dtype=np.intp)
        low, high = np.triu_indices(size, k=1)
        codes.append((matrix[:, low] * n + matrix[:, high]).ravel())
    unique = np.unique(np.concatenate(codes))
    return np.column_stack((unique // n, unique % n))


def _emit_dropped(
    metrics: "MetricsRegistry | None", blocks: int, members: int
) -> None:
    """Record silently-discarded candidates where telemetry can see them.

    A block dropped for being oversized is recall traded away, and a
    run that sheds thousands of members should say so in its snapshot
    rather than quietly return fewer duplicates.
    """
    if metrics is None or blocks == 0:
        return
    metrics.counter("blocking.dropped_blocks").increment(blocks)
    metrics.counter("blocking.dropped_members").increment(members)


def _blocking_tokens(
    record: Record, attributes: Sequence[str], min_token_length: int
) -> set[str]:
    """The tokens a record is blocked on: every token of at least
    ``min_token_length`` characters in its non-missing blocking values."""
    tokens: set[str] = set()
    for attribute in attributes:
        value = record.get(attribute)
        if value.is_missing:
            continue
        tokens |= {
            token
            for token in token_set(str(value.raw))
            if len(token) >= min_token_length
        }
    return tokens


def token_blocking(
    table: Table,
    attributes: Sequence[str],
    min_token_length: int = 3,
    max_block_size: int = MAX_BLOCK_SIZE,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Candidate pairs sharing at least one token in a blocking attribute.

    Tokens shorter than ``min_token_length`` are ignored (too common);
    blocks larger than ``max_block_size`` are dropped entirely — an
    oversized block means the token is a stop word for this dataset.
    Dropped blocks are counted on ``metrics`` (``blocking.dropped_blocks``
    / ``blocking.dropped_members``) so the recall loss is observable.
    """
    return blocked_pairs(
        [
            _blocking_tokens(record, attributes, min_token_length)
            for record in table.records
        ],
        max_block_size,
        metrics,
    )


def blocked_pairs(
    tokens: Sequence[Iterable[str]],
    max_block_size: int = MAX_BLOCK_SIZE,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """The candidate pairs of :func:`token_blocking` from each record's
    blocking tokens (``tokens[i]`` for the record at index ``i``).

    The blocks are a function of the tokens alone, so a caller that
    kept a record's tokens from an earlier blocking of the same record
    hands them in again instead of re-tokenising it.
    """
    blocks: dict[str, list[int]] = {}
    for index, held in enumerate(tokens):
        for token in held:
            blocks.setdefault(token, []).append(index)

    kept: list[list[int]] = []
    dropped_blocks = 0
    dropped_members = 0
    for members in blocks.values():
        if len(members) > max_block_size:
            dropped_blocks += 1
            dropped_members += len(members)
            continue
        kept.append(members)
    _emit_dropped(metrics, dropped_blocks, dropped_members)
    return _pairs_of_blocks(kept, len(tokens))



#: Modulus for the affine MinHash permutations: arithmetic is done in
#: uint64 with natural wrap-around (multiply-shift universal hashing),
#: so any odd multiplier mixes all 64 bits.
_UINT64 = np.uint64


def _token_ids(
    table: Table,
    attributes: Sequence[str],
    min_token_length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record token hashes as (flat ids, CSR-style indptr).

    Tokens are :func:`_blocking_tokens`, as in :func:`token_blocking`,
    hashed to stable 64-bit ids with blake2b — deterministic across
    processes and platforms, unlike the salted builtin ``hash``.
    """
    flat: list[int] = []
    indptr = np.zeros(len(table) + 1, dtype=np.intp)
    for index, record in enumerate(table.records):
        for token in sorted(
            _blocking_tokens(record, attributes, min_token_length)
        ):
            digest = hashlib.blake2b(
                token.encode("utf-8"), digest_size=8
            ).digest()
            flat.append(int.from_bytes(digest, "big"))
        indptr[index + 1] = len(flat)
    return np.asarray(flat, dtype=_UINT64), indptr


def minhash_lsh(
    table: Table,
    attributes: Sequence[str],
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 2016,
    min_token_length: int = 3,
    max_bucket_size: int | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Candidate pairs whose token sets likely exceed Jaccard similarity.

    Classic MinHash-LSH: each record's blocking tokens are hashed through
    ``num_perm`` seeded affine permutations; the signature is split into
    ``bands`` bands of ``num_perm // bands`` rows, and two records become
    candidates when *any* band collides exactly.  With ``r`` rows per
    band the collision probability of a pair at Jaccard similarity ``s``
    is ``1 - (1 - s^r)^bands`` — the familiar S-curve, steep around
    ``(1/bands)^(1/r)``.  The defaults (64 permutations, 16 bands of 4)
    centre the curve near ``s ≈ 0.5``: real duplicates (token overlap
    well above a half) are near-certain candidates while unrelated
    records almost never collide — and candidate count stays ~linear in
    rows where :func:`full_pairs` is quadratic.

    Determinism: permutations derive from ``seed`` alone (via
    ``random.Random``), token ids from blake2b — the output array is
    byte-identical across runs, processes, and platforms for the same
    inputs.  Records with *no* blocking tokens generate no candidates
    (there is no evidence to bucket them on); pass a larger attribute
    list rather than relying on empty signatures colliding.

    ``max_bucket_size`` optionally drops oversized buckets (a degenerate
    band — e.g. every record sharing one boilerplate token) with the
    same ``blocking.dropped_*`` accounting as :func:`token_blocking`.
    """
    if num_perm < 1:
        raise ResolutionError(f"num_perm must be positive, got {num_perm}")
    if bands < 1 or bands > num_perm:
        raise ResolutionError(
            f"bands must be in [1, num_perm], got {bands} of {num_perm}"
        )
    if num_perm % bands:
        raise ResolutionError(
            f"bands ({bands}) must divide num_perm ({num_perm}) so every "
            "band gets the same number of signature rows"
        )
    flat, indptr = _token_ids(table, attributes, min_token_length)
    counts = np.diff(indptr)
    populated = np.flatnonzero(counts > 0)
    if populated.shape[0] < 2:
        return _EMPTY_PAIRS

    rng = random.Random(seed)
    # Odd multipliers + arbitrary offsets: multiply-shift hashing over
    # the full uint64 ring, drawn deterministically from the seed.
    a = np.asarray(
        [rng.randrange(1, 2**64, 2) for __ in range(num_perm)], dtype=_UINT64
    )
    b = np.asarray(
        [rng.randrange(0, 2**64) for __ in range(num_perm)], dtype=_UINT64
    )
    # hashed[t, p] = a[p] * token[t] + b[p]  (mod 2^64, wrap-around).
    with np.errstate(over="ignore"):
        hashed = flat[:, None] * a[None, :] + b[None, :]
    # Per-record minimum over each record's token slice.  reduceat needs
    # non-empty slices, so reduce only the populated rows.
    starts = indptr[populated]
    signatures = np.minimum.reduceat(hashed, starts, axis=0)
    # reduceat reduces from each start to the next start — the final
    # slice runs to the end of `hashed`, which is exactly the last
    # populated record's token span because empty records contribute no
    # tokens after it.

    rows_per_band = num_perm // bands
    buckets: list[np.ndarray] = []
    dropped_blocks = 0
    dropped_members = 0
    for band in range(bands):
        view = signatures[:, band * rows_per_band:(band + 1) * rows_per_band]
        __, inverse, bucket_sizes = np.unique(
            view, axis=0, return_inverse=True, return_counts=True
        )
        # Stable, so each bucket's members stay ascending.
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(bucket_sizes)[:-1]
        for members in np.split(populated[order], boundaries):
            if members.shape[0] < 2:
                continue
            if (
                max_bucket_size is not None
                and members.shape[0] > max_bucket_size
            ):
                dropped_blocks += 1
                dropped_members += members.shape[0]
                continue
            buckets.append(members)
    _emit_dropped(metrics, dropped_blocks, dropped_members)
    return _pairs_of_blocks(buckets, len(table))


def recall_of(
    pairs: Iterable[tuple[int, int]] | np.ndarray,
    true_pairs: Iterable[tuple[int, int]] | np.ndarray,
) -> float:
    """Fraction of true matching pairs surviving blocking (for evaluation)."""
    true_set = as_pair_set(true_pairs)
    if not true_set:
        return 1.0
    return len(true_set & as_pair_set(pairs)) / len(true_set)
