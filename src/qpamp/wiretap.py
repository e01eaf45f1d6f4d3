"""Classical-quantum wiretap channels: secrecy exponents and leakage bounds.

A wiretap channel maps each input symbol to a joint state on Bob's and Eve's
registers.  Reliable communication is handled at the formula level only (the
decoder is imported machinery); the secrecy side is fully simulable because
the coding scheme acts as a regular binning of a type class, so Eve's leakage
is controlled by two privacy-amplification terms on her marginal source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import divergence as dv
from . import simulate
from .errors import CapacityError, InvalidInputError, InvalidParameterError
from .exponent import (
    GRID_POINTS,
    ExponentReport,
    _check_n,
    _check_rate,
    _entropy_term,
    _sup_over_alpha,
)
from .model import (
    CQSource,
    ConstantTypeSource,
    TypeDistribution,
    prior_from_json,
    states_from_json,
)
from .qmat import DensityOperator, HermitianOperator, _entries, matrix_to_json


@dataclass(frozen=True)
class WiretapChannel:
    """Input prior plus one joint B (x) E state per symbol."""

    prior: np.ndarray
    joint_states: tuple[DensityOperator, ...]
    dims: tuple[int, int]

    def __post_init__(self):
        d_b, d_e = (int(d) for d in self.dims)
        if d_b < 1 or d_e < 1:
            raise InvalidInputError(f"dims must be positive, got {self.dims}")
        # the joint states with the prior form a c-q source, which checks both
        try:
            src = CQSource(prior=self.prior, states=self.joint_states)
        except InvalidInputError as exc:
            raise InvalidInputError(f"channel (states = joint_states): {exc}") from None
        if src.dim_b != d_b * d_e:
            raise InvalidInputError(
                f"joint state dimension {src.dim_b} != d_B * d_E = {d_b * d_e}"
            )
        object.__setattr__(self, "prior", src.prior)
        object.__setattr__(self, "joint_states", src.states)
        object.__setattr__(self, "dims", (d_b, d_e))

    @property
    def alphabet_size(self) -> int:
        return len(self.joint_states)


@dataclass(frozen=True)
class RateAllocation:
    """Message rate R, local-randomness rate R1, public-key rate R2 (nats)."""

    R: float
    R1: float
    R2: float

    def __post_init__(self):
        if min(self.R, self.R1, self.R2) < 0.0:
            raise InvalidParameterError(
                f"rates must be nonnegative, got {(self.R, self.R1, self.R2)}"
            )


@dataclass(frozen=True)
class AllocationReport:
    rates: RateAllocation
    bob_decoding_exponent: ExponentReport


@dataclass(frozen=True)
class LeakageReport:
    """Two PA terms bounding Eve's leakage, plus the direct value if enumerable."""

    pa_joint: simulate.SimEstimate | float
    pa_key: simulate.SimEstimate | float
    bound_sum: float
    direct: float | None
    bins_joint: int
    bins_key: int
    realized: RateAllocation
    exact: bool


def partial_trace(op, keep: str, dims: tuple[int, int]) -> HermitianOperator:
    """Trace out one tensor factor of an operator on B (x) E.

    keep is "B" (keep the first factor) or "E" (keep the second).
    """
    d_b, d_e = (int(d) for d in dims)
    arr = _entries(op)
    if arr.shape[0] != d_b * d_e:
        raise InvalidInputError(
            f"operator dimension {arr.shape[0]} != d_B * d_E = {d_b * d_e}"
        )
    t = arr.reshape(d_b, d_e, d_b, d_e)
    if keep == "B":
        return HermitianOperator(np.trace(t, axis1=1, axis2=3))
    if keep == "E":
        return HermitianOperator(np.trace(t, axis1=0, axis2=2))
    raise InvalidParameterError(f"keep must be 'B' or 'E', got {keep!r}")


def _marginal_source(ch: WiretapChannel, keep: str) -> CQSource:
    """The prior with the per-symbol marginal on the kept register."""
    states = tuple(DensityOperator(partial_trace(s, keep, ch.dims)) for s in ch.joint_states)
    return CQSource(prior=ch.prior, states=states)


def bob_source(ch: WiretapChannel) -> CQSource:
    """The c-q source seen by Bob: prior with per-symbol B marginals."""
    return _marginal_source(ch, "B")


def eve_source(ch: WiretapChannel) -> CQSource:
    """The c-q source seen by Eve: prior with per-symbol E marginals."""
    return _marginal_source(ch, "E")


def secrecy_exponent(
    ch: WiretapChannel,
    rate: float,
    *,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """Achievable secrecy exponent at message rate R (nats/symbol).

    sup over alpha in (1,2) of ((alpha-1)/alpha)(I(X:B) - I_aug*(alpha; Eve) - R).
    Requires R < I(X:B) for reliable decoding; that side condition is reported,
    not enforced.
    """
    _check_rate(rate)
    eve = eve_source(ch)
    mutual_b = dv.holevo_mutual_info(bob_source(ch))
    return _sup_over_alpha(
        eve, "augustin", (mutual_b, -rate), points=points, prefactor_log=0.0,
        meta={
            "kind": "wiretap-secrecy",
            "rate": float(rate),
            "convention": "sup_{a in (1,2)} ((a-1)/a)(I(X:B) - I_aug_sandwiched(a; E) - R)",
            "mutual_info_bob": mutual_b,
            "mutual_info_eve": dv.holevo_mutual_info(eve),
            "decodable_iff": "rate < mutual_info_bob",
            "positive_iff": "rate < mutual_info_bob - mutual_info_eve",
        },
    )


def positivity_threshold(ch: WiretapChannel) -> float:
    """I(X:B) - I(X:E): the secrecy exponent is positive iff R is below this."""
    return dv.holevo_mutual_info(bob_source(ch)) - dv.holevo_mutual_info(eve_source(ch))


def allocate_rates(
    ch: WiretapChannel,
    rate: float,
    delta: float,
    n: int,
    *,
    points: int = GRID_POINTS,
) -> AllocationReport:
    """Rate split used by the coding scheme at blocklength n and slack delta.

    R2 = (1/n) log|T^n_p| - I(X:B) + delta and R1 = I(X:B) - R - delta, so
    R + R1 sits just below the decoding limit.  The Bob-side decoding exponent
    sup_{a in (1/2,1)} ((1-a)/a)(I_petz_up(2-1/a; B) - R - R1) is evaluated as
    a formula only.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidParameterError(f"delta must be finite and positive, got {delta}")
    _check_rate(rate)
    _check_n(n)
    bob = bob_source(ch)
    mutual_b = dv.holevo_mutual_info(bob)
    if rate > mutual_b - delta:
        raise InvalidParameterError(
            f"rate {rate} is infeasible: needs rate <= I(X:B) - delta = "
            f"{mutual_b - delta:.6f}"
        )
    log_size_per_symbol, _ = _entropy_term(bob, n, finite_n=True)
    r2 = log_size_per_symbol - mutual_b + delta
    r1 = mutual_b - rate - delta
    if r2 < 0.0:
        raise InvalidParameterError(
            f"blocklength n={n} too small: computed key rate R2={r2:.6f} < 0"
        )
    rates = RateAllocation(R=float(rate), R1=float(r1), R2=float(r2))
    bob_exp = _sup_over_alpha(
        bob, "petz-up", (rate, r1), points=points,
        prefactor_log=math.log(6.0) + ch.alphabet_size * math.log(n + 1.0),
        meta={
            "kind": "wiretap-decoding",
            "rate": float(rate + r1),
            "convention": "sup_{a in (1/2,1)} ((1-a)/a)(I_petz_up(2-1/a; B) - R - R1)",
        },
    )
    return AllocationReport(rates=rates, bob_decoding_exponent=bob_exp)


def _nearest_divisor(size: int, target: float) -> int:
    small = [d for d in range(1, math.isqrt(size) + 1) if size % d == 0]
    return min(small + [size // d for d in small], key=lambda d: (abs(d - target), d))


#: cap on (subset, partition) pairs for the direct leakage enumeration
_DIRECT_CAP = 20_000


def simulate_leakage(
    ch: WiretapChannel,
    t: TypeDistribution,
    alloc: RateAllocation,
    trials: int,
    rng_seed: int,
    *,
    threads: int = 1,
) -> LeakageReport:
    """Estimate Eve's leakage bound for the wiretap coding scheme.

    The one-to-one map of the protocol acts as a regular binning of the type
    class into M*K bins of L sequences; its leakage is upper bounded by the
    sum of two privacy-amplification distances on Eve's constant-type source,
    at bin counts exp(n(R+R2)) and exp(n R2).  Requested bin counts are
    rounded to the nearest divisors of |T| (and the key count to a divisor of
    the joint count) so the binning stays regular; realized rates are
    reported.  On instances small enough to enumerate the map directly, the
    exact expected leakage is returned as well.
    """
    if t.alphabet_size != ch.alphabet_size:
        raise InvalidInputError("type alphabet does not match the channel")
    simulate._check_trials_threads(trials, threads)
    eve = ConstantTypeSource.from_states(eve_source(ch).states, t)
    # refuses a class too large to stack before the divisor search walks it
    size = simulate._class_size(eve)
    n = t.n
    # a target above |T| picks |T| itself, so clamping each exponent one nat past
    # the log of its divisor range changes no choice and keeps math.exp finite
    bins_joint = _nearest_divisor(size, math.exp(min(n * (alloc.R + alloc.R2), math.log(size) + 1)))
    bins_key = _nearest_divisor(bins_joint, math.exp(min(n * alloc.R2, math.log(bins_joint) + 1)))
    m = bins_joint // bins_key
    ell = size // bins_joint
    realized = RateAllocation(
        R=math.log(m) / n,
        R1=math.log(ell) / n,
        R2=math.log(bins_key) / n,
    )

    def pa_term(num_bins: int):
        try:
            return simulate.d_pa_exact(eve, num_bins), True
        except CapacityError:
            est = simulate.d_pa_monte_carlo(eve, num_bins, trials, rng_seed, threads=threads)
            return est, False

    pa_joint, joint_exact = pa_term(bins_joint)
    # equal bin counts make the key term the same seeded call
    pa_key, key_exact = (
        (pa_joint, joint_exact) if bins_key == bins_joint else pa_term(bins_key)
    )
    val_joint = pa_joint if joint_exact else pa_joint.mean
    val_key = pa_key if key_exact else pa_key.mean
    bound_sum = float(val_joint + val_key)

    direct = None
    if joint_exact and key_exact:
        direct = _direct_leakage_exact(eve, m, ell)
    return LeakageReport(
        pa_joint=pa_joint,
        pa_key=pa_key,
        bound_sum=bound_sum,
        direct=direct,
        bins_joint=bins_joint,
        bins_key=bins_key,
        realized=realized,
        exact=joint_exact and key_exact,
    )


def _direct_leakage_exact(eve: ConstantTypeSource, m: int, ell: int) -> float | None:
    """Exact E over (f, k) of Eve's per-key leakage.

    For a fixed key k, the accessible slice S is a uniformly random (m*ell)-
    subset of the type class, partitioned uniformly into m message bins of
    ell sequences; the leakage is the mean distance of a bin average to the
    slice average.  A bin of a uniform partition of S is a uniform ell-subset
    of S, so the expectation over partitions is the mean over ell-subsets B
    of S of 0.5 ||avg(B) - avg(S)||_1.  That value is the same on every
    S_n-orbit of slices, so one slice per orbit is walked, weighted by the
    orbit size.  None when the (slice, partition) pairs that expectation is
    defined over exceed ``_DIRECT_CAP``.
    """
    size = eve.type.class_size()
    slice_size = m * ell
    n_slices = math.comb(size, slice_size)
    if simulate._partition_count(slice_size, m, _DIRECT_CAP // n_slices) is None:
        return None
    domain, states, _ = simulate._prepare(eve)
    total = 0.0
    for subset, weight in zip(*simulate._subset_orbits(domain, slice_size)):
        sub = states[subset]
        blocks = combinations(range(slice_size), ell)
        total += int(weight) * sum(
            float(d.sum()) for d in simulate._subset_distances(sub, sub.mean(axis=0), blocks)
        )
    return total / (n_slices * math.comb(slice_size, ell))


# -- JSON wire format ----------------------------------------------------------
# Channel schema: { "prior": [...], "joint_states": [matrix, ...], "dims": [d_B, d_E] }


def channel_to_json(ch: WiretapChannel) -> dict:
    return {
        "prior": [float(p) for p in ch.prior],
        "joint_states": [matrix_to_json(s) for s in ch.joint_states],
        "dims": [int(d) for d in ch.dims],
    }


def channel_from_json(obj: dict) -> WiretapChannel:
    if not isinstance(obj, dict):
        raise InvalidInputError("channel JSON must be an object")
    for key in ("prior", "joint_states", "dims"):
        if key not in obj:
            raise InvalidInputError(f"channel JSON is missing the '{key}' field")
    states = states_from_json(obj, "joint_states")
    dims = obj["dims"]
    if not (
        isinstance(dims, list)
        and len(dims) == 2
        and all(isinstance(d, int) and not isinstance(d, bool) for d in dims)
    ):
        raise InvalidInputError(f"'dims' must be a [d_B, d_E] pair of integers, got {dims!r}")
    return WiretapChannel(
        prior=prior_from_json(obj["prior"]), joint_states=states, dims=tuple(dims)
    )
