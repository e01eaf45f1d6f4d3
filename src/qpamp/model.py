"""Classical-quantum sources, n-types, and type-class machinery.

Sequences over the alphabet are integer tuples indexing the symbols, and all
entropic quantities are in nats.  Combinatorics run in the log-factorial
domain, with exact integer multinomials used wherever divisibility matters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmat
from .errors import CapacityError, InvalidInputError
from .qmat import DensityOperator

#: default cap on the number of sequences / types an enumeration may produce
ENUMERATION_CAP = 10**6
#: a refused count up to this is printed in full, a larger one as "more than" the cap
_SHOWN_COUNT = 10**18
PRIOR_ATOL = 1e-12
#: log(sqrt(2 pi)) and the Stirling-series coefficients in 1/x^2 of cephes
#: lgam, below x = 1000 and from there on
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)


@dataclass(frozen=True)
class CQSource:
    """Finite alphabet with prior p and one density operator per symbol."""

    prior: np.ndarray
    states: tuple[DensityOperator, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float).copy()
        states = tuple(self.states)
        if prior.ndim != 1 or prior.size != len(states) or not states:
            raise InvalidInputError("prior and states must have matching nonzero length")
        if not np.isfinite(prior).all():
            raise InvalidInputError(f"prior has non-finite entries: {prior}")
        if prior.min() < 0.0:
            raise InvalidInputError("prior has negative entries")
        if abs(prior.sum() - 1.0) > PRIOR_ATOL:
            raise InvalidInputError(f"prior sums to {prior.sum()!r}, not 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise InvalidInputError(f"states have mixed dimensions {sorted(dims)}")
        if self.labels is not None and len(self.labels) != len(states):
            raise InvalidInputError("labels length does not match alphabet size")
        prior.setflags(write=False)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "states", states)

    @property
    def alphabet_size(self) -> int:
        return len(self.states)

    @property
    def dim_b(self) -> int:
        return self.states[0].dim

    def state_stack(self) -> np.ndarray:
        """Stacked state matrices, shape (alphabet_size, d_B, d_B)."""
        return np.stack([s.entries for s in self.states])


@dataclass(frozen=True)
class TypeDistribution:
    """An n-type: symbol counts summing to the blocklength n."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if self.n < 1:
            raise InvalidInputError(f"blocklength must be >= 1, got {self.n}")
        if self.n > sys.float_info.max:
            raise InvalidInputError(
                f"blocklength must be at most {sys.float_info.max:.4g}, "
                f"got a {int(self.n).bit_length()}-bit integer"
            )
        if any(c < 0 for c in counts) or sum(counts) != self.n:
            raise InvalidInputError(f"counts {counts} do not sum to n={self.n}")
        object.__setattr__(self, "counts", counts)

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def probabilities(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n

    def class_size(self) -> int:
        """Exact |T^n_q| as an integer multinomial coefficient.

        A product of binomials, each at most the result, so a small class of
        a long sequence never builds n!.
        """
        size, placed = 1, 0
        for c in self.counts:
            placed += c
            size *= math.comb(placed, c)
        return size


@dataclass(frozen=True)
class ConstantTypeSource:
    """Uniform distribution over one type class, tensored through the channel."""

    base: CQSource
    type: TypeDistribution

    def __post_init__(self):
        if self.base.alphabet_size != self.type.alphabet_size:
            raise InvalidInputError("source alphabet and type length differ")
        expected = self.type.probabilities()
        if not np.array_equal(self.base.prior, expected):
            raise InvalidInputError(
                "base prior must equal counts/n exactly; build via from_states()"
            )

    @classmethod
    def from_states(
        cls, states: Sequence[DensityOperator], type_dist: TypeDistribution
    ) -> "ConstantTypeSource":
        base = CQSource(prior=type_dist.probabilities(), states=tuple(states))
        return cls(base=base, type=type_dist)

    @property
    def n(self) -> int:
        return self.type.n


def marginal_state(src: CQSource) -> DensityOperator:
    """Prior-weighted average of the symbol states."""
    arr = np.einsum("x,xij->ij", src.prior, src.state_stack())
    return DensityOperator(arr)


def _log_factorial(k: int) -> float:
    """log k!, rounded as cephes lgam(k + 1) (SciPy's gammaln) rounds it.

    Below x = k + 1 = 13 it is the log of the exact product; above, Stirling's
    series with a 5-term correction, 3 terms from x = 1000 and none above 1e8.
    """
    x = float(k) + 1.0
    if x < 13.0:
        z = u = 1.0
        # cephes multiplies (x-1)(x-2)...2, exact below 13
        while x - u >= 2.0:
            z *= x - u
            u += 1.0
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    poly = 0.0
    for c in _LGAM_A if x < 1000.0 else _LGAM_B:
        poly = poly * p + c
    return q + poly / x


def type_class_log_size(t: TypeDistribution) -> float:
    """log |T^n_q| in nats, as log n! - sum_x log N(x)!."""
    return _log_factorial(t.n) - sum(_log_factorial(c) for c in t.counts)


def _capped_comb(n: int, k: int, limit: float) -> int | None:
    """C(n, k), or None as soon as it passes `limit`.

    The running products C(n-k+t, t), t = 1..min(k, n-k), at least double at
    every step, so a count too large to build costs a few dozen steps.
    """
    k, c = min(k, n - k), 1
    for t in range(1, k + 1):
        c = c * (n - k + t) // t
        if c > limit:
            return None
    return c if c <= limit else None


def enumerate_type_class(
    t: TypeDistribution, cap: int = ENUMERATION_CAP
) -> list[tuple[int, ...]]:
    """All sequences of the type, as integer tuples in lexicographic order.

    Starts from the sorted sequence and steps to the lexicographic successor
    (the next permutation of the multiset), so no recursion grows with n.
    """
    size = t.class_size()
    if size > cap:
        raise CapacityError(f"type class has {size} sequences, above the cap {cap}")
    seq = [x for x, c in enumerate(t.counts) for _ in range(c)]
    out = [tuple(seq)]
    for _ in range(size - 1):
        i = len(seq) - 2
        while seq[i] >= seq[i + 1]:
            i -= 1
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = seq[:i:-1]
        out.append(tuple(seq))
    return out


def enumerate_n_types(
    alphabet_size: int, n: int, cap: int = ENUMERATION_CAP
) -> list[TypeDistribution]:
    """All n-types on the alphabet (weak compositions of n)."""
    if alphabet_size < 1 or n < 1:
        raise InvalidInputError("alphabet_size and n must be >= 1")
    total = _capped_comb(n + alphabet_size - 1, alphabet_size - 1, max(cap, _SHOWN_COUNT))
    if total is None or total > cap:
        shown = f"more than {cap}" if total is None else total
        raise CapacityError(f"{shown} n-types exceeds the cap {cap}")
    out: list[TypeDistribution] = []
    parts: list[int] = []

    def rec(remaining: int, slots: int):
        if slots == 1:
            out.append(TypeDistribution(n=n, counts=tuple(parts) + (remaining,)))
            return
        for first in range(remaining + 1):
            parts.append(first)
            rec(remaining - first, slots - 1)
            parts.pop()

    rec(n, alphabet_size)
    return out


# -- JSON wire format ---------------------------------------------------------
# Source schema: { "alphabet": ["a", ...], "prior": [...], "states": [matrix, ...] }


def source_to_json(src: CQSource) -> dict:
    labels = src.labels or tuple(str(i) for i in range(src.alphabet_size))
    return {
        "alphabet": list(labels),
        "prior": [float(p) for p in src.prior],
        "states": [qmat.matrix_to_json(s) for s in src.states],
    }


def source_from_json(obj: dict) -> CQSource:
    if not isinstance(obj, dict):
        raise InvalidInputError("source JSON must be an object")
    for key in ("prior", "states"):
        if key not in obj:
            raise InvalidInputError(f"source JSON is missing the '{key}' field")
    states = states_from_json(obj, "states")
    labels = obj.get("alphabet")
    if labels is not None:
        if not isinstance(labels, list):
            raise InvalidInputError("'alphabet' must be a list of labels")
        labels = tuple(str(x) for x in labels)
    return CQSource(prior=prior_from_json(obj["prior"]), states=states, labels=labels)


def states_from_json(obj: dict, key: str) -> tuple[DensityOperator, ...]:
    """The density operators listed under ``key``, a nonempty list of matrices."""
    states_json = obj[key]
    if not isinstance(states_json, list) or not states_json:
        raise InvalidInputError(f"'{key}' must be a nonempty list of matrices")
    return tuple(DensityOperator(qmat.matrix_from_json(m)) for m in states_json)


def prior_from_json(values) -> np.ndarray:
    """A JSON prior as a float array; InvalidInputError if it is not numeric."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"'prior' must be a list of numbers: {exc}") from exc
