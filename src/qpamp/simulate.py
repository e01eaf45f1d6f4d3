"""Regular random binnings and codebooks without repetition on type classes.

Exact paths enumerate every regular binning (as unordered equal-size
partitions of the type class) or every M-subset; Monte Carlo paths draw
seeded samples.  The privacy-amplification distance never materializes the
composite register: the classical-quantum block structure splits the trace
norm into one term per bin, so only d_B^n-dimensional matrices are touched.

Randomness comes from counter-based Philox streams keyed by (seed,
trial_index), so trials are reproducible and independent of execution order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .model import ConstantTypeSource, TypeDistribution, enumerate_type_class
from .qmat import DIMENSION_CAP

#: cap on the number of partitions / subsets an exact expectation may visit
EXACT_ENUMERATION_CAP = 250_000
_MASK64 = (1 << 64) - 1
#: complex entries per eigvalsh batch (~32 MB)
_BATCH_ENTRIES = 2_097_152


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for trial `index` of stream `seed`."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Binning:
    """A k-to-1 assignment of type-class sequences to labeled bins."""

    domain: tuple[tuple[int, ...], ...]
    num_bins: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        size = len(self.domain)
        if self.num_bins < 1 or size % self.num_bins:
            raise InvalidParameterError(
                f"{self.num_bins} bins do not divide a domain of size {size}"
            )
        if len(self.assignment) != size:
            raise InvalidParameterError("assignment length does not match the domain")
        k = size // self.num_bins
        counts = np.bincount(np.asarray(self.assignment), minlength=self.num_bins)
        if counts.size != self.num_bins or not np.all(counts == k):
            raise InvalidParameterError(f"binning is not regular: bin sizes {counts}")

    @property
    def preimage_size(self) -> int:
        return len(self.domain) // self.num_bins

    def bins(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_bins)]
        for idx, z in enumerate(self.assignment):
            out[z].append(idx)
        return out


@dataclass(frozen=True)
class Codebook:
    """M distinct sequences drawn from a single type class."""

    codewords: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.codewords:
            raise InvalidParameterError("codebook must be nonempty")
        if len(set(self.codewords)) != len(self.codewords):
            raise InvalidParameterError("codewords must be pairwise distinct")
        first = _counts_of(self.codewords[0])
        if any(_counts_of(c) != first for c in self.codewords[1:]):
            raise InvalidParameterError("codewords must all have the same type")


def _counts_of(seq: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(np.bincount(np.asarray(seq), minlength=max(seq) + 1))


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


def sample_regular_binning(
    t: TypeDistribution, num_bins: int, rng_seed: int
) -> Binning:
    """Uniformly random regular binning of the type class into labeled bins.

    Realized by a seeded Fisher-Yates shuffle of the enumerated class followed
    by chunking into equal consecutive blocks.
    """
    size = t.class_size()
    if num_bins < 1 or size % num_bins:
        raise InvalidParameterError(
            f"num_bins={num_bins} does not divide |T| = {size} exactly"
        )
    domain = tuple(enumerate_type_class(t))
    rng = substream(rng_seed, 0)
    perm = rng.permutation(size)
    k = size // num_bins
    assignment = np.empty(size, dtype=int)
    assignment[perm] = np.arange(size) // k
    return Binning(domain=domain, num_bins=num_bins, assignment=tuple(int(z) for z in assignment))


def sample_codebook_without_repetition(
    t: TypeDistribution, M: int, rng_seed: int
) -> Codebook:
    """Uniform sample of M distinct type-class sequences (partial Fisher-Yates)."""
    size = t.class_size()
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    domain = tuple(enumerate_type_class(t))
    sel = _draw_without_replacement(substream(rng_seed, 0), size, M)
    return Codebook(codewords=tuple(domain[i] for i in sorted(sel)))


def _draw_without_replacement(rng: np.random.Generator, size: int, m: int) -> np.ndarray:
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


def _half_trace_norms(stack: np.ndarray) -> np.ndarray:
    """0.5 ||.||_1 for a stack of Hermitian matrices, batched eigvalsh."""
    dim = stack.shape[-1]
    chunk = max(1, _BATCH_ENTRIES // (dim * dim))
    out = np.empty(stack.shape[0])
    for lo in range(0, stack.shape[0], chunk):
        part = stack[lo : lo + chunk]
        out[lo : lo + chunk] = 0.5 * np.abs(np.linalg.eigvalsh(part)).sum(axis=-1)
    return out


def _prepare(src: ConstantTypeSource, cap: int):
    domain = tuple(enumerate_type_class(src.type, cap=cap))
    states = _sequence_state_stack(src, domain)
    marginal = states.mean(axis=0)
    return domain, states, marginal


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


def d_sc_exact(
    src: ConstantTypeSource, M: int, cap: int = EXACT_ENUMERATION_CAP
) -> float:
    """Exact expected trace distance of the M-codeword average to the marginal.

    Averages over all M-subsets of the type class (uniform codebook without
    repetition).
    """
    size = src.type.class_size()
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    n_subsets = math.comb(size, M)
    if n_subsets > cap:
        raise CapacityError(f"{n_subsets} codebooks exceed the enumeration cap {cap}")
    _, states, marginal = _prepare(src, cap=max(cap, size))
    total = 0.0
    combos = combinations(range(size), M)
    dim = states.shape[-1]
    chunk = max(1, _BATCH_ENTRIES // (dim * dim))
    buf: list[np.ndarray] = []
    for sel in combos:
        buf.append(states[list(sel)].mean(axis=0) - marginal)
        if len(buf) == chunk:
            total += float(_half_trace_norms(np.stack(buf)).sum())
            buf.clear()
    if buf:
        total += float(_half_trace_norms(np.stack(buf)).sum())
    return total / n_subsets


def _subset_distances(states: np.ndarray, marginal: np.ndarray, k: int) -> dict:
    """Trace distance to the marginal for every k-subset average state."""
    size = states.shape[0]
    subsets = list(combinations(range(size), k))
    diffs = np.stack([states[list(s)].mean(axis=0) - marginal for s in subsets])
    vals = _half_trace_norms(diffs)
    return {s: float(v) for s, v in zip(subsets, vals)}


def d_pa_exact(
    src: ConstantTypeSource, num_bins: int, cap: int = EXACT_ENUMERATION_CAP
) -> float:
    """Exact expected privacy-amplification distance over all regular binnings.

    The c-q block structure reduces the composite trace norm to the average of
    per-bin trace distances, so the expectation runs over unordered equal-size
    partitions of the type class with memoized per-subset distances.
    """
    size = src.type.class_size()
    if num_bins < 1 or size % num_bins:
        raise InvalidParameterError(
            f"num_bins={num_bins} does not divide |T| = {size} exactly"
        )
    k = size // num_bins
    n_partitions = _partition_count(size, num_bins)
    if n_partitions > cap:
        raise CapacityError(
            f"{n_partitions} regular binnings exceed the enumeration cap {cap}"
        )
    _, states, marginal = _prepare(src, cap=max(cap, size))
    dist = _subset_distances(states, marginal, k)
    total = 0.0
    count = 0
    for blocks in _equal_partitions(tuple(range(size)), k):
        total += sum(dist[b] for b in blocks) / num_bins
        count += 1
    assert count == n_partitions
    return total / count


def _mc_run(
    trials: int,
    rng_seed: int,
    trial_fn: Callable[[np.random.Generator], float],
    threads: int = 1,
) -> SimEstimate:
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")

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
    cap: int = EXACT_ENUMERATION_CAP,
    threads: int = 1,
) -> SimEstimate:
    """Monte Carlo estimate of d_sc_exact; unbiased, deterministic given seed."""
    size = src.type.class_size()
    if not 1 <= M <= size:
        raise InvalidParameterError(f"M={M} must lie in [1, |T|={size}]")
    _, states, marginal = _prepare(src, cap=cap)

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
    cap: int = EXACT_ENUMERATION_CAP,
    threads: int = 1,
) -> SimEstimate:
    """Monte Carlo estimate of d_pa_exact over sampled regular binnings."""
    size = src.type.class_size()
    if num_bins < 1 or size % num_bins:
        raise InvalidParameterError(
            f"num_bins={num_bins} does not divide |T| = {size} exactly"
        )
    k = size // num_bins
    _, states, marginal = _prepare(src, cap=cap)

    def trial(rng: np.random.Generator) -> float:
        perm = rng.permutation(size)
        bins = np.sort(perm.reshape(num_bins, k), axis=1)
        diffs = states[bins].mean(axis=1) - marginal
        return float(_half_trace_norms(diffs).mean())

    return _mc_run(trials, rng_seed, trial, threads)


def verify_equivalence(
    src: ConstantTypeSource, num_bins: int, cap: int = EXACT_ENUMERATION_CAP
) -> EquivalenceReport:
    """Exact check of the PA <-> soft-covering equivalence.

    Computes d_PA at rate (1/n) log num_bins and d_SC at codebook size
    |T|/num_bins.  The two are provably equal (a random bin is marginally a
    uniform codebook without repetition), so any gap is floating-point error.
    """
    size = src.type.class_size()
    if num_bins < 1 or size % num_bins:
        raise InvalidParameterError(
            f"num_bins={num_bins} does not divide |T| = {size} exactly"
        )
    d_pa = d_pa_exact(src, num_bins, cap=cap)
    d_sc = d_sc_exact(src, size // num_bins, cap=cap)
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
