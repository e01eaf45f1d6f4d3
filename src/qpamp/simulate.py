"""Privacy-amplification and soft-covering distances on constant-type sources.

The c-q block structure splits the privacy-amplification trace norm into the
mean per-bin distance, and a bin of a uniformly random regular binning is a
uniform codebook without repetition of size |T|/bins, so exact d_PA is d_SC at
that size (the PA <-> SC identity).  Every exact expectation is a mean over
k-subsets streamed one eigvalsh batch at a time.  Permuting sequence positions
is a unitary on the tensor factors that fixes the type-class marginal, so a
subset's distance is constant on its S_n-orbit: ``d_sc_exact`` (hence
``d_pa_exact``) and the direct wiretap leakage diagonalise one representative
per orbit, weighted by the orbit size.  ``verify_equivalence`` stays the plain
certificate: it streams every subset and walks every binning.  The caps are
checked on the full subset count before any orbit is labelled.  Monte Carlo
trials draw a seeded regular binning or codebook without repetition each.

Randomness comes from counter-based Philox streams keyed by (seed,
trial_index), so trials are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, compress, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .model import ConstantTypeSource, enumerate_type_class
from .qmat import DIMENSION_CAP

#: cap on the number of partitions / subsets an exact expectation may visit
EXACT_ENUMERATION_CAP = 250_000
_MASK64 = (1 << 64) - 1
#: complex entries per eigvalsh batch (~32 MB)
_BATCH_ENTRIES = 2_097_152
#: ceiling on the bytes of all subset differences one exact expectation streams
_STREAM_BYTES_CAP = 4 << 30


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
    """Stack of tensor-product sequence states, shape (|T|, D, D)."""
    singles = src.base.state_stack()
    dim_total = singles.shape[-1] ** src.n
    if dim_total > DIMENSION_CAP:
        raise CapacityError(
            f"sequence dimension {dim_total} exceeds the cap {DIMENSION_CAP}"
        )
    out = np.empty((len(domain), dim_total, dim_total), dtype=complex)
    for i, seq in enumerate(domain):
        acc = singles[seq[0]]
        for x in seq[1:]:
            acc = np.kron(acc, singles[x])
        out[i] = acc
    return out


def _prepare(src: ConstantTypeSource, cap: int):
    domain = tuple(enumerate_type_class(src.type, cap=cap))
    states = _sequence_state_stack(src, domain)
    marginal = states.mean(axis=0)
    return domain, states, marginal


def _bin_size(size: int, num_bins: int, cap: int | None = None) -> int:
    """|T| / num_bins for a regular binning; refuses more than `cap` binnings."""
    if num_bins < 1 or size % num_bins:
        raise InvalidParameterError(
            f"num_bins={num_bins} does not divide |T| = {size} exactly"
        )
    if cap is not None and (n_partitions := _partition_count(size, num_bins)) > cap:
        raise CapacityError(
            f"{n_partitions} regular binnings exceed the enumeration cap {cap}"
        )
    return size // num_bins


def _partition_count(size: int, num_bins: int) -> int:
    k = size // num_bins
    total = math.factorial(size)
    for _ in range(num_bins):
        total //= math.factorial(k)
    return total // math.factorial(num_bins)


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


def _check_stream_bytes(src: ConstantTypeSource, k: int) -> None:
    """Refuse before allocating when the k-subset differences pass the ceiling."""
    n_subsets, dim = math.comb(src.type.class_size(), k), src.base.dim_b**src.n
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
    # lex rank of a sorted row b: total-1 - sum_j C(c_j, j+1), c = (size-1-b) ascending;
    # the terms used are at most `total`, so clipping keeps int64 exact
    binom = np.zeros((size, k + 1), dtype=np.int64)
    binom[:, 0] = 1
    for m in range(1, k + 1):
        np.minimum(np.cumsum(binom[:-1, m - 1]), total, out=binom[1:, m])
    cols = np.arange(1, k + 1)
    # int32 ranks: the byte ceiling and the direct-leakage cap keep C(|T|, k) below 2**28
    images = np.empty((len(swaps), total), dtype=np.int32)
    combos, lo = combinations(range(size), k), 0
    # small chunks keep the transient index arrays near 128 KB each
    while rows := list(islice(combos, max(1, (1 << 14) // k))):
        rows = np.array(rows)
        for img, perm in zip(images, swaps):
            moved = perm[rows]
            moved.sort(axis=1)
            c = size - 1 - moved[:, ::-1]
            img[lo : lo + len(rows)] = total - 1 - binom[c, cols].sum(axis=1)
        lo += len(rows)
    labels = np.arange(total)
    while True:
        prev = labels.copy()
        for img in images:
            np.minimum(labels, labels[img], out=labels)
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    is_rep = labels == np.arange(total)
    reps = np.array(list(compress(combinations(range(size), k), is_rep)))
    return reps, np.bincount(labels, minlength=total)[is_rep]


def _subset_distances(
    states: np.ndarray, center: np.ndarray, rows: Iterable[Sequence[int]]
) -> Iterator[np.ndarray]:
    """0.5 ||avg(B) - center||_1 for every index row B of `rows`, in order.

    ``combinations(range(len(states)), k)`` streams every k-subset; the
    representatives of ``_subset_orbits`` stream one per orbit.  Yields one
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


def d_sc_exact(
    src: ConstantTypeSource, M: int, cap: int = EXACT_ENUMERATION_CAP
) -> float:
    """Exact expected trace distance of the M-codeword average to the marginal.

    Averages over all M-subsets of the type class (uniform codebook without
    repetition): the distance of one representative per S_n-orbit, weighted
    by the orbit size.  The cap and the byte ceiling count every M-subset.
    """
    size = src.type.class_size()
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    n_subsets = math.comb(size, M)
    if n_subsets > cap:
        raise CapacityError(f"{n_subsets} codebooks exceed the enumeration cap {cap}")
    _check_stream_bytes(src, M)
    domain, states, marginal = _prepare(src, cap=max(cap, size))
    reps, sizes = _subset_orbits(domain, M)
    dists = np.concatenate(list(_subset_distances(states, marginal, reps)))
    return float(dists @ sizes) / n_subsets


def d_pa_exact(
    src: ConstantTypeSource, num_bins: int, cap: int = EXACT_ENUMERATION_CAP
) -> float:
    """Exact expected privacy-amplification distance over all regular binnings.

    The composite trace norm is the mean per-bin distance, and each bin of a
    uniformly random regular binning is a uniform (|T|/num_bins)-subset, so
    this is d_sc_exact at codebook size |T|/num_bins; no binning is walked.
    The cap counts regular binnings; the subset byte ceiling applies too.
    """
    size = src.type.class_size()
    k = _bin_size(size, num_bins, cap)
    # the binning count is the gate; the k-subsets may be up to num_bins times more
    return d_sc_exact(src, k, cap=max(cap, math.comb(size, k)))


def _check_trials_threads(trials: int, threads: int) -> None:
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")


def _mc_run(
    trials: int,
    rng_seed: int,
    trial_fn: Callable[[np.random.Generator], float],
    threads: int = 1,
) -> SimEstimate:
    _check_trials_threads(trials, threads)

    def one(i: int) -> float:
        return trial_fn(substream(rng_seed, i))

    # map() keeps trial order, so the estimate does not depend on the pool size
    workers = min(threads, trials, len(os.sched_getaffinity(0)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = np.fromiter(pool.map(one, range(trials)), dtype=float, count=trials)
    else:
        values = np.fromiter((one(i) for i in range(trials)), dtype=float, count=trials)
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
    size = src.type.class_size()
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    _, states, marginal = _prepare(src, cap=EXACT_ENUMERATION_CAP)

    def trial(rng: np.random.Generator) -> float:
        sel = np.sort(_draw_without_replacement(rng, size, M))
        diff = states[sel].mean(axis=0) - marginal
        return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())

    return _mc_run(trials, rng_seed, trial, threads)


def d_pa_monte_carlo(
    src: ConstantTypeSource,
    num_bins: int,
    trials: int,
    rng_seed: int,
    *,
    threads: int = 1,
) -> SimEstimate:
    """Monte Carlo estimate of d_pa_exact over sampled regular binnings."""
    size = src.type.class_size()
    k = _bin_size(size, num_bins)
    _, states, marginal = _prepare(src, cap=EXACT_ENUMERATION_CAP)

    def trial(rng: np.random.Generator) -> float:
        diffs = states[_draw_binning(rng, num_bins, k)].mean(axis=1) - marginal
        return float((0.5 * np.abs(np.linalg.eigvalsh(diffs)).sum(axis=-1)).mean())

    return _mc_run(trials, rng_seed, trial, threads)


def verify_equivalence(
    src: ConstantTypeSource, num_bins: int, cap: int = EXACT_ENUMERATION_CAP
) -> EquivalenceReport:
    """Exact check of the PA <-> soft-covering equivalence by two routes.

    d_PA walks every regular binning (unordered equal-size partition) and d_SC
    is d_sc_exact at codebook size |T|/num_bins; one subset pass feeds both.
    The two are provably equal, so any gap is floating-point error.
    """
    size = src.type.class_size()
    k = _bin_size(size, num_bins, cap)
    _check_stream_bytes(src, k)
    _, states, marginal = _prepare(src, cap=max(cap, size))
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
