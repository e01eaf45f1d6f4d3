"""Privacy-amplification and soft-covering distances on constant-type sources.

The c-q block structure splits the privacy-amplification trace norm into the
mean per-bin distance, and a bin of a uniformly random regular binning is a
uniform codebook without repetition of size |T|/bins, so exact d_PA is d_SC at
that size (the PA <-> SC identity).  Every exact expectation is a mean over
k-subsets streamed one eigvalsh batch at a time.  Permuting sequence positions
is a unitary on the tensor factors that fixes the type-class marginal, so a
subset's distance is constant on its S_n-orbit: ``d_sc_exact``,
``d_pa_exact`` and the direct wiretap leakage diagonalise one representative
per orbit, weighted by the orbit size.  ``verify_equivalence`` stays the plain
certificate: it streams every subset and walks every binning.  The caps are
checked on the full count before any orbit is labelled; a count stops being
multiplied once it passes its cap, and a class whose states could never be
stacked is refused before |T| is counted.

Monte Carlo trials draw a seeded regular binning or codebook without
repetition each, that is a set of k-subsets of the type class.  On small
classes the same subsets come back trial after trial, so the draws are
collapsed to distinct subsets, each distinct subset's distance is computed
once by the same ``_subset_distances`` kernel the exact routes use, and the
distances are scattered back to the trials (draw -> dedupe -> evaluate ->
scatter).

Randomness comes from counter-based Philox streams keyed by (seed,
trial_index), so trials are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations, compress, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .model import _SHOWN_COUNT, ENUMERATION_CAP, ConstantTypeSource, _capped_comb
from .model import enumerate_type_class, type_class_log_size
from .qmat import DIMENSION_CAP

#: cap on the binnings / codebooks of an exact route and the sequences of a Monte Carlo one
EXACT_ENUMERATION_CAP = 250_000
_MASK64 = (1 << 64) - 1
#: complex entries per eigvalsh batch (~32 MB)
_BATCH_ENTRIES = 2_097_152
#: ceiling on the bytes of all subset differences one exact expectation streams
_STREAM_BYTES_CAP = 4 << 30
#: ceiling on the bytes of the stacked type-class states, |T| * D^2 * 16; the build
#: briefly holds the stack plus its previous level, 1/d_B^2 of it
_STATE_STACK_BYTES_CAP = 1 << 30
#: complex entries per Monte Carlo eigvalsh batch (~1 MB); 4 MB batches ran no
#: faster and raised the resident peak of a Monte Carlo run by 11-21%
_MC_BATCH_ENTRIES = 65_536
#: drawn indices held per chunk of Monte Carlo trials (~512 KB)
_MC_CHUNK_INDICES = 65_536
#: ceiling on trials * 8, the bytes of the per-trial Monte Carlo values
#: (33,554,432 trials); their mean and spread hold about three times that
_MC_VALUES_BYTES_CAP = 1 << 28


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for trial `index` of stream `seed`."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo mean with its standard error and the generating seed."""

    mean: float
    trials: int
    std_error: float
    seed: int


@dataclass(frozen=True)
class EquivalenceReport:
    d_pa: float
    d_sc: float
    gap: float


def _draw_binning(rng: np.random.Generator, num_bins: int, k: int) -> np.ndarray:
    """Uniformly random regular binning: one sorted row of k indices per bin."""
    return np.sort(rng.permutation(num_bins * k).reshape(num_bins, k), axis=1)


def _draw_without_replacement(rng: np.random.Generator, size: int, m: int) -> np.ndarray:
    """m distinct indices of range(size), uniformly (partial Fisher-Yates)."""
    idx = np.arange(size)
    for i in range(m):
        j = i + int(rng.integers(size - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:m]


# -- exact and sampled secrecy / covering distances ----------------------------


def _sequence_state_stack(src: ConstantTypeSource, domain) -> np.ndarray:
    """Stack of tensor-product sequence states, shape (|T|, D, D), one position at a time.

    Each step multiplies every entry of the stack so far by every entry of the
    next position's state, as ``np.kron`` does, so a stack equals its
    sequences' kron chains bit for bit.
    """
    singles, columns = src.base.state_stack(), np.array(domain).T
    out = singles[columns[0]]
    for column in columns[1:]:
        d = out.shape[-1] * singles.shape[-1]
        out = (out[:, :, None, :, None] * singles[column][:, None, :, None, :]).reshape(-1, d, d)
    return out


def _class_size(src: ConstantTypeSource, cap: int = ENUMERATION_CAP) -> int:
    """|T|, the one gate before a route enumerates or stacks the type class.

    Every route stacks the |T| sequence states of D = d_B^n.  The log of their
    bytes is compared with the state-stack ceiling first, one nat to spare
    for rounding, so a class that could never be stacked is refused before
    |T| is counted; then |T| against `cap`, D against DIMENSION_CAP and the
    exact stack bytes.
    """
    t = src.type
    log_bytes = type_class_log_size(t) + 2 * t.n * math.log(src.base.dim_b) + math.log(16)
    if log_bytes > math.log(_STATE_STACK_BYTES_CAP) + 1.0:
        raise CapacityError(
            f"the type-class states need about 2^{log_bytes / math.log(2):.4g} bytes, "
            f"over the {_STATE_STACK_BYTES_CAP >> 30} GiB state-stack ceiling"
        )
    if (size := t.class_size()) > cap:
        raise CapacityError(f"type class has {size} sequences, above the cap {cap}")
    if (dim := src.base.dim_b**t.n) > DIMENSION_CAP:
        raise CapacityError(f"sequence dimension {dim} exceeds the cap {DIMENSION_CAP}")
    if (stack_bytes := size * dim * dim * 16) > _STATE_STACK_BYTES_CAP:
        raise CapacityError(
            f"{size} sequence states of {dim}x{dim} need {stack_bytes / 2**30:.2f} GiB, "
            f"over the {_STATE_STACK_BYTES_CAP >> 30} GiB state-stack ceiling"
        )
    return size


def _prepare(src: ConstantTypeSource):
    """Type class, sequence states and their mean, once ``_class_size`` has passed it."""
    domain = tuple(enumerate_type_class(src.type))
    states = _sequence_state_stack(src, domain)
    marginal = states.mean(axis=0)
    return domain, states, marginal


def _bin_size(size: int, num_bins: int) -> int:
    """|T| / num_bins for a regular binning."""
    if num_bins < 1 or size % num_bins:
        raise InvalidParameterError(
            f"num_bins={num_bins} does not divide |T| = {size} exactly"
        )
    return size // num_bins


def _partition_count(size: int, num_bins: int, limit: float = math.inf) -> int | None:
    """Regular binnings of `size` elements into `num_bins` bins, or None past `limit`.

    The product over blocks of the C(m-1, k-1) ways to fill the block holding
    the smallest of the m elements left; for k > 1 every factor is at least 3.
    """
    k, total = size // num_bins, 1
    for m in range(size, k, -k) if k > 1 else ():
        c = _capped_comb(m - 1, k - 1, limit)
        if c is None or (total := total * c) > limit:
            return None
    return total if total <= limit else None


def _counted_within(what: str, count: Callable[..., int | None], *args) -> int:
    """``count(*args, limit)``, refused with CapacityError above EXACT_ENUMERATION_CAP."""
    cap = EXACT_ENUMERATION_CAP
    total = count(*args, max(cap, _SHOWN_COUNT))
    if total is None or total > cap:
        shown = f"more than {cap}" if total is None else total
        raise CapacityError(f"{shown} {what} exceed the enumeration cap {cap}")
    return total


def _equal_partitions(elems: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All unordered partitions of elems into blocks of size k (canonical order)."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for combo in combinations(rest, k - 1):
        block = (first,) + combo
        picked = set(combo)
        remaining = tuple(e for e in rest if e not in picked)
        for sub in _equal_partitions(remaining, k):
            yield (block,) + sub


def _check_stream_bytes(src: ConstantTypeSource, n_subsets: int) -> None:
    """Refuse before allocating when the subset differences pass the ceiling."""
    dim = src.base.dim_b**src.n
    if n_subsets * dim * dim * 16 > _STREAM_BYTES_CAP:
        raise CapacityError(
            f"{n_subsets} subsets of {dim}x{dim} states exceed the "
            f"{_STREAM_BYTES_CAP >> 30} GiB enumeration ceiling"
        )


def _subset_orbits(domain: Sequence[tuple[int, ...]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """One representative per S_n-orbit of the k-subsets of `domain`, and its size.

    `domain` is a type class in lexicographic order.  The orbits are the
    connected components of the graph joining each subset to its images
    under the n-1 adjacent position swaps, which generate S_n; min-label
    propagation with pointer jumping labels every subset by the smallest
    ``combinations`` rank in its orbit.  Holds (n-1) image ranks and one
    label per subset, never a matrix.  Representatives come in
    ``combinations`` order, as index rows of shape (orbits, k).
    """
    size, n = len(domain), len(domain[0])
    total = math.comb(size, k)
    position = {seq: i for i, seq in enumerate(domain)}
    swaps = [
        np.array([position[s[:i] + (s[i + 1], s[i]) + s[i + 2 :]] for s in domain])
        for i in range(n - 1)
    ]
    # complement commutes with S_n, and the k-subset of rank r is the complement of the
    # (size-k)-subset of rank total-1-r, so above size/2 the m = size-k subsets are
    # ranked instead; k = size ranks its one subset, as its complement is empty
    flip = 0 < size - k < k
    m = size - k if flip else k
    # lex rank of a sorted row b: total-1 - sum_j C(c_j, j+1), c = (size-1-b) ascending;
    # j <= c_j <= size-m+j, so only the band band[c-j, j] = C(c, j+1) is held, at most
    # C(size-1, m) <= total each: (size-m+1) * m entries, not size * (m+1)
    band = np.empty((size - m + 1, m + 1), dtype=np.int64)
    band[:, 0] = 1
    band[0, 0] = 0
    for j in range(1, m + 1):
        np.cumsum(band[:, j - 1], out=band[:, j])
    band = band[:, 1:]
    cols = np.arange(m)
    # int32 ranks: the byte ceiling and the direct-leakage cap keep C(|T|, k) below 2**28
    images = np.empty((len(swaps), total), dtype=np.int32)
    combos, lo = combinations(range(size), m), 0
    # small chunks keep the transient index arrays near 128 KB each
    while rows := list(islice(combos, max(1, (1 << 14) // m))):
        rows = np.array(rows)
        for img, perm in zip(images, swaps):
            moved = perm[rows]
            moved.sort(axis=1)
            c = size - 1 - moved[:, ::-1]
            img[lo : lo + len(rows)] = total - 1 - band[c - cols, cols].sum(axis=1)
        lo += len(rows)
    if flip:
        np.subtract(total - 1, images, out=images)
        images = images[:, ::-1]
    labels = np.arange(total)
    while True:
        prev = labels.copy()
        for img in images:
            np.minimum(labels, labels[img], out=labels)
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    is_rep = labels == np.arange(total)
    sizes = np.bincount(labels, minlength=total)[is_rep]
    if not flip:
        return np.array(list(compress(combinations(range(size), k), is_rep))), sizes
    # each representative is the complement of an m-subset, listed in reverse
    kept = np.array(list(compress(combinations(range(size), m), is_rep[::-1])))[::-1]
    mask = np.ones((len(kept), size), dtype=bool)
    mask[np.arange(len(kept))[:, None], kept] = False
    return np.nonzero(mask)[1].reshape(len(kept), k), sizes


def _subset_distances(
    states: np.ndarray, center: np.ndarray, rows: Iterable[Sequence[int]]
) -> Iterator[np.ndarray]:
    """0.5 ||avg(B) - center||_1 for every index row B of `rows`, in order.

    ``combinations(range(len(states)), k)`` streams every k-subset; the
    representatives of ``_subset_orbits`` stream one per orbit; ``_mc_run``
    passes one batch of distinct drawn subsets at a time.  Yields one
    eigvalsh batch at a time.  Subset sums accumulate one position at a
    time, an eighth of a batch per gather, so about 1.1 batches are held,
    never a (batch, k, D, D) gather.
    """
    dim = states.shape[-1]
    rows, chunk, acc = iter(rows), max(1, _BATCH_ENTRIES // (dim * dim)), None
    while idx := list(islice(rows, chunk)):
        idx = np.array(idx)
        if acc is None:  # sized by the first batch, so short streams stay small
            step = -(-len(idx) // 8)
            acc = np.empty((len(idx), dim, dim), complex)
            part = np.empty((step, dim, dim), complex)
        sums = acc[: len(idx)]
        # mode="clip": the default "raise" buffers a copy of every gather
        for lo in range(0, len(idx), step):
            block, out = idx[lo : lo + step], sums[lo : lo + step]
            np.take(states, block[:, 0], axis=0, out=out, mode="clip")
            for j in range(1, idx.shape[1]):
                out += np.take(states, block[:, j], axis=0, out=part[: len(block)], mode="clip")
        sums /= idx.shape[1]
        sums -= center
        yield 0.5 * np.abs(np.linalg.eigvalsh(sums)).sum(axis=-1)


def _orbit_mean(src: ConstantTypeSource, k: int, n_subsets: int) -> float:
    """Mean 0.5 ||avg(B) - marginal||_1 over all k-subsets B, one per S_n-orbit, weighted."""
    _check_stream_bytes(src, n_subsets)
    domain, states, marginal = _prepare(src)
    reps, sizes = _subset_orbits(domain, k)
    dists = np.concatenate(list(_subset_distances(states, marginal, reps)))
    return float(dists @ sizes) / n_subsets


def d_sc_exact(src: ConstantTypeSource, M: int) -> float:
    """Exact expected trace distance of the M-codeword average to the marginal.

    Averages over all M-subsets of the type class (uniform codebook without
    repetition).  EXACT_ENUMERATION_CAP and the byte ceiling count every
    M-subset.
    """
    size = _class_size(src)
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    return _orbit_mean(src, M, _counted_within("codebooks", _capped_comb, size, M))


def d_pa_exact(src: ConstantTypeSource, num_bins: int) -> float:
    """Exact expected privacy-amplification distance over all regular binnings.

    The composite trace norm is the mean per-bin distance, and each bin of a
    uniformly random regular binning is a uniform (|T|/num_bins)-subset, so
    this is the d_sc_exact mean at codebook size |T|/num_bins; no binning is
    walked.  EXACT_ENUMERATION_CAP counts regular binnings, the byte ceiling
    the subsets, which may be up to num_bins times more.
    """
    size = _class_size(src)
    k = _bin_size(size, num_bins)
    _counted_within("regular binnings", _partition_count, size, num_bins)
    return _orbit_mean(src, k, math.comb(size, k))


def _check_trials_threads(trials: int, threads: int) -> None:
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")


def _mc_run(
    states: np.ndarray,
    marginal: np.ndarray,
    draw: Callable[[np.random.Generator], np.ndarray],
    shape: tuple[int, int],
    trials: int,
    rng_seed: int,
    threads: int = 1,
) -> SimEstimate:
    """Mean over trials of the mean distance of each trial's drawn subsets.

    Trial i calls ``draw(substream(rng_seed, i))`` for `shape` = (subsets,
    k) sorted index rows.  Trials are drawn in chunks of about
    ``_MC_CHUNK_INDICES`` indices; a chunk's rows are collapsed to distinct
    subsets, each distinct subset's 0.5 ||avg(B) - marginal||_1 comes from
    ``_subset_distances`` in eigvalsh batches of about ``_MC_BATCH_ENTRIES``
    entries, and the distances are scattered back to the trials.  A subset
    repeated across chunks is computed again.  The pool maps the batches of
    distinct subsets; the sums, divisions and per-matrix eigvalsh calls are
    those of a per-trial loop, so the estimate does not depend on the chunk,
    the batch or the pool size.
    """
    _check_trials_threads(trials, threads)
    if (values_bytes := trials * 8) > _MC_VALUES_BYTES_CAP:
        raise CapacityError(
            f"{trials} trials need {values_bytes / 2**20:.0f} MiB of values, over the "
            f"{_MC_VALUES_BYTES_CAP >> 20} MiB Monte Carlo ceiling"
        )
    rows_per_trial, k = shape
    dim = states.shape[-1]
    batch = max(1, _MC_BATCH_ENTRIES // (dim * dim))
    chunk = max(1, _MC_CHUNK_INDICES // (rows_per_trial * k))

    def evaluate(rows: np.ndarray) -> np.ndarray:
        # `batch` rows never exceed the kernel's own batch, so it yields once
        return next(_subset_distances(states, marginal, rows))

    values = np.empty(trials)
    workers = min(threads, trials, len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool is not None else map
        for lo in range(0, trials, chunk):
            count = min(chunk, trials - lo)
            drawn = np.empty((count, rows_per_trial, k), dtype=np.intp)
            for j in range(count):
                drawn[j] = draw(substream(rng_seed, lo + j))
            distinct, inverse = np.unique(drawn.reshape(-1, k), axis=0, return_inverse=True)
            batches = (distinct[b : b + batch] for b in range(0, len(distinct), batch))
            dists = np.concatenate(list(mapper(evaluate, batches)))
            values[lo : lo + count] = dists[inverse.reshape(count, rows_per_trial)].mean(axis=1)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimEstimate(mean=mean, trials=trials, std_error=std_error, seed=int(rng_seed))


def d_sc_monte_carlo(
    src: ConstantTypeSource,
    M: int,
    trials: int,
    rng_seed: int,
    *,
    threads: int = 1,
) -> SimEstimate:
    """Monte Carlo estimate of d_sc_exact; unbiased, deterministic given seed."""
    size = _class_size(src, EXACT_ENUMERATION_CAP)
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    _, states, marginal = _prepare(src)
    return _mc_run(
        states, marginal, lambda rng: np.sort(_draw_without_replacement(rng, size, M)),
        (1, M), trials, rng_seed, threads,
    )


def d_pa_monte_carlo(
    src: ConstantTypeSource,
    num_bins: int,
    trials: int,
    rng_seed: int,
    *,
    threads: int = 1,
) -> SimEstimate:
    """Monte Carlo estimate of d_pa_exact over sampled regular binnings."""
    size = _class_size(src, EXACT_ENUMERATION_CAP)
    k = _bin_size(size, num_bins)
    _, states, marginal = _prepare(src)
    return _mc_run(
        states, marginal, lambda rng: _draw_binning(rng, num_bins, k),
        (num_bins, k), trials, rng_seed, threads,
    )


def verify_equivalence(src: ConstantTypeSource, num_bins: int) -> EquivalenceReport:
    """Exact check of the PA <-> soft-covering equivalence by two routes.

    d_PA walks every regular binning (unordered equal-size partition) and d_SC
    is d_sc_exact at codebook size |T|/num_bins; one subset pass feeds both.
    The two are provably equal, so any gap is floating-point error.
    EXACT_ENUMERATION_CAP counts regular binnings, as in d_pa_exact.
    """
    size = _class_size(src)
    k = _bin_size(size, num_bins)
    _counted_within("regular binnings", _partition_count, size, num_bins)
    _check_stream_bytes(src, math.comb(size, k))
    _, states, marginal = _prepare(src)
    chunks = list(_subset_distances(states, marginal, combinations(range(size), k)))
    d_sc = sum(float(d.sum()) for d in chunks) / math.comb(size, k)
    dist = dict(zip(combinations(range(size), k), np.concatenate(chunks).tolist()))
    d_pa = 0.0
    for blocks in _equal_partitions(tuple(range(size)), k):
        d_pa += sum(dist[b] for b in blocks) / num_bins
    d_pa /= _partition_count(size, num_bins)
    return EquivalenceReport(d_pa=d_pa, d_sc=d_sc, gap=abs(d_pa - d_sc))


def without_replacement_covariance(values: Sequence[float], M: int) -> float:
    """Exact cross-moment E[f_i f_j], i != j, for centered draws w/o replacement.

    Drawing M distinct indices uniformly from N values and centering f at its
    mean, the off-diagonal second moment is averaged over all ordered pairs of
    draw positions.  It is never positive.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InvalidParameterError("values must be a vector of length >= 2")
    n = v.size
    if not 2 <= M <= n:
        raise InvalidParameterError(f"M={M} must lie in [2, N={n}]")
    fhat = v - v.mean()
    outer = np.outer(fhat, fhat)
    return float((outer.sum() - np.trace(outer)) / (n * (n - 1)))
