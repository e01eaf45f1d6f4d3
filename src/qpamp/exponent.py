"""Achievability and strong-converse exponents as suprema over alpha.

Every exponent has the form

    offset + sup_{alpha in (lo, hi)} ((1 - alpha)/alpha) (Q(alpha) - c)

with Q one of three rate-independent curves of a source, the rows of
``_FAMILIES``: the sandwiched Augustin information on (1, 2) (``augustin``),
the Petz Augustin-like quantity at order 2 - 1/alpha on (1/2, 1)
(``petz-up``), and -H*_alpha(X|B) on (1, 2) (``neg-conditional``).  Each
kind supplies its row, the shift c (the rate and an entropy-like term) and
the offset, plus its report's prefactor and meta.  ``_sup_over_alpha``, the
one evaluator, grids the objective slightly inside the interval (the
endpoints are singular in the prefactors) with one batched curve call,
refines the best bracket by golden-section search on the same curve
function and returns the ``ExponentReport``.  The grid's fixed-point solves
start cold at the source marginal; every refinement solve of the same
report starts at the grid optimizer of the best grid order, which has
already converged next to the bracket and roughly halves the iterations.
Each refinement call evaluates every point the next LOOKAHEAD golden steps
may need, so it takes the same steps and returns the same floats as a
search with one solve per step from that start.  Exponents are in nats per
symbol; negative values mean the bound is vacuous and are reported as-is.

When the best grid order is the first or the last, the evaluator reads the
objective's slope there before walking: a central difference over
+- EDGE_STEP of Q with its reference state held at that order's grid
optimizer (``divergence._objective_at``; petz-up's closed form has a fixed
reference), which solves no fixed point.  By the envelope theorem (Milgrom
and Segal, Econometrica 70(2), 2002) that is the slope of the optimised
objective.  If it points out of the grid by more than EDGE_SLOPE_MARGIN, the
grid point is the report: a walk would close in on that end, stop at least
0.3 REFINE_XTOL inside it, read a value lower by at least 3e-13 and keep the
grid point, because a warm refined value differs from the cold grid value at
the same order by far less (see EDGE_SLOPE_MARGIN).  So every report is
bit-identical to a walk's.  A smaller or non-finite slope walks as before,
and a walk skipped reads no point, so none can raise.

The grid curve does not depend on the rate, so it is memoised: kinds and
rates that share a source share one sweep.  The memo is keyed by a digest of
the content (family, prior, states, grid), never by object identity, so a
rebuilt equal source hits.  Each entry holds read-only arrays: the grid
values and, for the fixed-point families, the grid optimizers (one d_B x d_B
state per order), so a hit refines from the same state as a miss.  It never
holds an error, and evicts least-recently-used curves to stay within
CURVE_MEMO_BYTES, which counts the optimizers too.  No flag controls it.
Refinement points are not memoised.  A divergence function replaced after a
curve is cached (a tracer or a test double) is not called on a hit.  Every
exponent shares this one memo, which holds no lock: do not call exponents
from several threads at once.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import divergence as dv
from .errors import CapacityError, ConvergenceError, InvalidInputError, InvalidParameterError
from .model import CQSource, TypeDistribution, enumerate_n_types, type_class_log_size

#: distance kept from the open interval endpoints when gridding alpha
ALPHA_MARGIN = 1e-4
#: default number of grid points for the alpha sweep
GRID_POINTS = 400
#: coarser grid used for the inner sweeps of the type-decomposition scan
SCAN_POINTS = 80
#: cap on the n-types the type-decomposition scan may visit
SCAN_TYPES_CAP = 10**4
#: bracket width at which golden-section refinement stops
REFINE_XTOL = 1e-8
#: golden-section steps whose possible points one refinement batch evaluates
LOOKAHEAD = 3
#: half-step of the central difference that reads the objective's slope at a
#: grid end; below ALPHA_MARGIN, so both points lie inside the interval, and its
#: truncation (~h^2) and rounding (~1e-16/h) errors are far below the margin
EDGE_STEP = 1e-5
#: outward slope above which a grid end is kept without a walk.  The walk would
#: read a value at least 0.3 * REFINE_XTOL * margin = 3e-13 lower; the largest
#: gap between a cold grid value and a warm solve at the same order (objective
#: units, both ends, all three families) on the 100 sources of acceptance
#: criterion 2 is 2.6e-15
EDGE_SLOPE_MARGIN = 1e-4
#: memory the grid-curve memo may hold, keys and arrays included
CURVE_MEMO_BYTES = 1 << 20
#: ceiling on points * |X| * d_B^2 * 16, the bytes of one grid's stacked
#: per-order states; a fixed-point sweep peaks at 10-14 times this
_GRID_BYTES_CAP = 1 << 26

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ExponentReport:
    """Optimized exponent, optimizing alpha, and the alpha-sweep curve."""

    exponent: float
    alpha_star: float
    curve: tuple[tuple[float, float], ...]
    prefactor_log: float
    meta: dict = field(default_factory=dict)


class _Curve(NamedTuple):
    """Q at each order, and the fixed-point optimizer there (None for petz-up)."""

    values: np.ndarray
    optimizers: np.ndarray | None


class _Family(NamedTuple):
    """Open alpha interval of a curve Q, Q over an array of orders, and Q at one state.

    ``curve`` is called as (source, alphas, start) for the grid and the
    refinement alike and returns a ``_Curve``.  The fixed-point rows start
    every order at the d_B x d_B state ``start``, or at the source marginal
    when it is None; petz-up has a closed form and ignores it.  Given one
    order it raises the ConvergenceError of the family's single-point solve
    (``best`` an AugustinResult for the fixed-point rows).  ``at_state`` is
    called as (source, alphas, state) and returns Q over the orders with the
    reference state held at ``state``, solving nothing: for the fixed-point
    rows the objective they optimise, with the row's sign, at ``state``; for
    petz-up, whose reference state is the marginal, its closed form.
    """

    lo: float
    hi: float
    curve: Callable[[CQSource, np.ndarray, np.ndarray | None], _Curve]
    at_state: Callable[[CQSource, np.ndarray, np.ndarray | None], np.ndarray]


def _fixed_point_row(conditional: bool, sign: float) -> tuple[Callable, Callable]:
    """The curve of a fixed-point family, ``sign`` times the optimized value, and its at_state."""

    def curve(src, alphas, start):
        values, optimizers, _, _ = dv._fixed_point(src, alphas, conditional, start)
        return _Curve(sign * values, optimizers)

    def at_state(src, alphas, state):
        states, prior = dv._positive_part(src)
        sigmas = np.broadcast_to(state, (alphas.size, *state.shape))
        return sign * dv._objective_at(states, prior, alphas, sigmas, conditional=conditional)

    return curve, at_state


def _petz_up(src, alphas, state=None):
    return dv.augustin_petz_up_curve(src, 2.0 - 1.0 / alphas)


# The divergence functions are looked up when called, so code that replaces
# one of them (a tracer, a test double) sees every call made from here, except
# grid curves the memo already holds.  Every curve computes each order on its
# own (the fixed-point sweep freezes each order as it converges), so a batch
# of orders gives the same floats as one order at a time from the same start,
# and a memoised grid curve the same floats as a fresh one.  The grid starts
# cold at the marginal; the refinement starts at the grid optimizer of the
# best grid order, which the memo keeps, so a hit refines from the same state
# as a miss.
_FAMILIES = {
    "augustin": _Family(1.0, 2.0, *_fixed_point_row(False, 1.0)),
    "petz-up": _Family(0.5, 1.0, lambda src, a, start: _Curve(_petz_up(src, a), None), _petz_up),
    "neg-conditional": _Family(1.0, 2.0, *_fixed_point_row(True, -1.0)),
}


def _memo_bytes(key: bytes, curve: _Curve) -> int:
    """What a memo entry holds: its key, values and optimizer stack."""
    return sys.getsizeof(key) + sum(sys.getsizeof(a) for a in curve if a is not None)


class _CurveMemo:
    """Least-recently-used grid curves under a digest of their inputs; unlocked."""

    def __init__(self):
        self._curves: OrderedDict[bytes, _Curve] = OrderedDict()
        self.nbytes = 0

    def get(self, key: bytes) -> _Curve | None:
        curve = self._curves.get(key)
        if curve is not None:
            self._curves.move_to_end(key)
        return curve

    def put(self, key: bytes, curve: _Curve) -> None:
        size = _memo_bytes(key, curve)
        if size > CURVE_MEMO_BYTES or key in self._curves:
            return
        self._curves[key] = curve
        self.nbytes += size
        while self.nbytes > CURVE_MEMO_BYTES:
            self.nbytes -= _memo_bytes(*self._curves.popitem(last=False))

    def clear(self) -> None:
        self._curves.clear()
        self.nbytes = 0


_CURVES = _CurveMemo()


def _grid_curve(src: CQSource, family: str, alphas: np.ndarray) -> _Curve:
    """The family's cold-started curve over the grid ``alphas``, computed once per content.

    Both arrays are read-only copies that own their memory, so the memo
    counts every byte it holds.
    """
    digest = hashlib.sha256(family.encode())
    for part in (src.prior, src.state_stack(), alphas):
        digest.update(repr((part.dtype.str, part.shape)).encode())
        digest.update(part.tobytes())
    key = digest.digest()
    curve = _CURVES.get(key)
    if curve is None:
        curve = _Curve(*map(_read_only_copy, _FAMILIES[family].curve(src, alphas, None)))
        _CURVES.put(key, curve)
    return curve


def _read_only_copy(a: np.ndarray | None) -> np.ndarray | None:
    if a is None:
        return None
    a = np.array(a)
    a.setflags(write=False)
    return a


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise InvalidParameterError(f"rate must be finite and >= 0, got {rate}")


def _check_n(n: int | None) -> None:
    if n is not None and not (isinstance(n, numbers.Integral) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n}")
    if n is not None and n > sys.float_info.max:
        raise InvalidParameterError(
            f"n must be at most {sys.float_info.max:.4g}, "
            f"got a {int(n).bit_length()}-bit integer"
        )


def _golden_step(lo, hi, c, d, c_wins: bool):
    """One golden-section step; returns the new bracket and its new point."""
    if c_wins:
        hi, d = d, c
        c = hi - _INV_PHI * (hi - lo)
        return lo, hi, c, d, c
    lo, c = c, d
    d = lo + _INV_PHI * (hi - lo)
    return lo, hi, c, d, d


def _ahead(lo, hi, c, d, depth: int) -> list[float]:
    """Every point the next ``depth`` steps from this bracket may evaluate.

    Both outcomes of each comparison are followed; a branch whose bracket
    reaches REFINE_XTOL ends at its midpoint.
    """
    if not hi - lo > REFINE_XTOL:
        return [0.5 * (lo + hi)]
    if depth == 0:
        return []
    points = []
    for c_wins in (True, False):
        lo2, hi2, c2, d2, new = _golden_step(lo, hi, c, d, c_wins)
        points += [new] + _ahead(lo2, hi2, c2, d2, depth - 1)
    return points


def _golden_max(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """Golden-section maximum of fn on [lo, hi]: (final bracket midpoint, value).

    ``fn`` maps an array of points to their values.  Each call evaluates
    every point the next LOOKAHEAD steps may read, and the walk reads its
    values from those, so it visits the same points as a walk evaluating one
    point per step.  If a batch fails, the point the walk reads next is
    evaluated alone, so a point it never reads cannot raise.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    known: dict[float, float] = {}
    while True:
        while hi - lo > REFINE_XTOL and c in known and d in known:
            lo, hi, c, d, _ = _golden_step(lo, hi, c, d, known[c] > known[d])
        mid = 0.5 * (lo + hi)
        if not hi - lo > REFINE_XTOL and mid in known:
            return mid, known[mid]
        points = [c, d] + _ahead(lo, hi, c, d, LOOKAHEAD - 1)
        points = [p for p in dict.fromkeys(points) if p not in known]
        try:
            values = fn(np.array(points))
        except ConvergenceError:
            points = points[:1]
            values = fn(points[0])
        known.update(zip(points, map(float, np.atleast_1d(values))))


def _slope(fam: _Family, src: CQSource, objective, a: float, state) -> float:
    """The objective's slope at order ``a`` with Q's reference state held at ``state``.

    A central difference over a +- EDGE_STEP of ``fam.at_state``.  When
    ``state`` is the optimizer at ``a`` this is the slope of the optimised
    objective (the envelope theorem), and no fixed point is solved.
    """
    pair = np.array([a - EDGE_STEP, a + EDGE_STEP])
    with np.errstate(invalid="ignore", over="ignore"):
        below, above = objective(fam.at_state(src, pair, state), pair)
        return float((above - below) / (2.0 * EDGE_STEP))


def _sup_over_alpha(
    src: CQSource,
    family: str,
    shift: tuple[float, ...],
    *,
    prefactor_log: float,
    meta: dict,
    offset: float = -0.0,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """The report of offset + sup over the family's interval of ((1-a)/a)(Q(a) - c).

    The terms of ``shift`` are subtracted from Q one at a time, in the order
    each formula states them, so every objective rounds exactly as its closed
    form does.  The default offset is -0.0, the exact additive identity, so
    an objective without one keeps the sign of a zero.  Grids
    [lo+margin, hi-margin], then refines the best bracket unless the best
    order is a grid end the objective leaves outward.  Returns the
    ExponentReport of the supremum, its alpha, the grid curve and the given
    ``prefactor_log`` and ``meta``.  Every refinement solve of a fixed-point
    family starts at the grid optimizer of the best grid order, so each
    refined value depends on its order and that one state only.
    """
    if points < 2:
        raise InvalidParameterError(f"points must be >= 2, got {points}")
    if (grid_bytes := points * src.alphabet_size * src.dim_b**2 * 16) > _GRID_BYTES_CAP:
        raise CapacityError(
            f"{points} orders of {src.alphabet_size} {src.dim_b}x{src.dim_b} states need "
            f"{grid_bytes / 2**20:.0f} MiB, over the {_GRID_BYTES_CAP >> 20} MiB alpha-grid ceiling"
        )
    fam = _FAMILIES[family]

    def objective(q, a):
        for c in shift:
            q = q - c
        return offset + (1.0 - a) / a * q

    alphas = np.linspace(fam.lo + ALPHA_MARGIN, fam.hi - ALPHA_MARGIN, points)
    grid = _grid_curve(src, family, alphas)
    vals = objective(grid.values, alphas)
    i = int(np.argmax(vals))
    best_a, best_v = float(alphas[i]), float(vals[i])
    start = None if grid.optimizers is None else grid.optimizers[i]
    # a grid end whose slope points out of the grid is the point a walk keeps
    outward = {0: -1.0, points - 1: 1.0}.get(i)
    slope = math.nan if outward is None else outward * _slope(fam, src, objective, best_a, start)
    if not slope > EDGE_SLOPE_MARGIN:
        ra, rv = _golden_max(
            lambda a: objective(fam.curve(src, a, start).values, a),
            float(alphas[max(i - 1, 0)]),
            float(alphas[min(i + 1, points - 1)]),
        )
        if rv > best_v:
            best_a, best_v = float(ra), float(rv)
    curve = tuple((float(a), float(v)) for a, v in zip(alphas, vals))
    return ExponentReport(best_v, best_a, curve, prefactor_log, meta)


def _entropy_term(src: CQSource, n: int | None, finite_n: bool) -> tuple[float, str]:
    """H(p) for the asymptotic form, (1/n) log|T^n_p| for the finite-n form."""
    if not finite_n:
        return dv.shannon_entropy(src.prior), "H(p)"
    if n is None:
        raise InvalidParameterError("finite-n exponent form requires a blocklength n")
    # Python integers: an int64 sum of the counts wraps past 9.2e18
    counts_f = [float(c) for c in src.prior * n]
    counts = tuple(round(c) for c in counts_f)
    near = max(abs(c - k) for c, k in zip(counts_f, counts)) <= 1e-9 and sum(counts) == n
    if not near and n > 2**53:
        # p * n rounds as a float past 2**53, so the counts are also tried from
        # the exact rational value a/b of each float p
        ratios = [float(p).as_integer_ratio() for p in src.prior]
        counts = tuple((2 * a * int(n) + b) // (2 * b) for a, b in ratios)
        near = sum(counts) == n and all(
            abs(a * int(n) - k * b) * 10**9 <= b for (a, b), k in zip(ratios, counts)
        )
    if not near:
        raise InvalidInputError(f"prior {src.prior} is not an n-type at n={n}")
    t = TypeDistribution(n=n, counts=counts)
    return type_class_log_size(t) / n, "log|T|/n"


def sc_achievability_exponent(
    src: CQSource,
    rate: float,
    *,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """Soft-covering achievability exponent at codebook rate R (nats/symbol).

    sup over alpha in (1,2) of ((1-alpha)/alpha)(I_aug*(alpha) - R), where
    I_aug* is the sandwiched Augustin information.  The covering error decays
    like exp(-n * exponent); the exponent is positive iff R exceeds the
    quantum mutual information.
    """
    _check_rate(rate)
    return _sup_over_alpha(
        src, "augustin", (rate,), points=points, prefactor_log=0.0,
        meta={
            "kind": "sc-direct",
            "rate": float(rate),
            "convention": "sup_{a in (1,2)} ((1-a)/a)(I_aug_sandwiched(a) - R); "
            "bound d_SC <= exp(-n * exponent)",
            "mutual_info": dv.holevo_mutual_info(src),
            "positive_iff": "rate > mutual_info",
        },
    )


def sc_converse_exponent(
    src: CQSource,
    rate: float,
    *,
    n: int | None = None,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """Soft-covering strong-converse exponent at codebook rate R.

    sup over alpha in (1/2,1) of ((1-alpha)/alpha)(I_petz_up(2-1/alpha) - R).
    The covering error obeys d_SC >= 1 - 4 (n+1)^|X| exp(-n * exponent).
    """
    _check_rate(rate)
    _check_n(n)
    return _sup_over_alpha(
        src, "petz-up", (rate,), points=points,
        prefactor_log=_converse_prefactor_log(src.alphabet_size, n),
        meta={
            "kind": "sc-converse",
            "rate": float(rate),
            "convention": "sup_{a in (1/2,1)} ((1-a)/a)(I_petz_up(2-1/a) - R); "
            "bound d_SC >= 1 - 4 (n+1)^|X| exp(-n * exponent)",
            "mutual_info": dv.holevo_mutual_info(src),
            "positive_iff": "rate < mutual_info",
        },
    )


def _converse_prefactor_log(alphabet_size: int, n: int | None) -> float:
    if n is None:
        return math.nan
    return math.log(4.0) + alphabet_size * math.log(n + 1.0)


def pa_achievability_exponent(
    src: CQSource,
    rate: float,
    *,
    n: int | None = None,
    finite_n: bool = False,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """Privacy-amplification achievability exponent on a constant-type source.

    sup over alpha in (1,2) of ((alpha-1)/alpha)(S - I_aug*(alpha) - R) where
    S is H(p) in the asymptotic form (prefactor (n+1)^(|X|/2)) or the exact
    (1/n) log|T^n_p| in the finite-n form (no prefactor).
    """
    _check_rate(rate)
    _check_n(n)
    entropy, label = _entropy_term(src, n, finite_n)
    if finite_n:
        prefactor = 0.0
    elif n is not None:
        prefactor = 0.5 * src.alphabet_size * math.log(n + 1.0)
    else:
        prefactor = math.nan
    return _sup_over_alpha(
        src, "augustin", (entropy, -rate), points=points, prefactor_log=prefactor,
        meta={
            "kind": "pa-direct",
            "rate": float(rate),
            "entropy_term": label,
            "convention": "sup_{a in (1,2)} ((a-1)/a)(S - I_aug_sandwiched(a) - R); "
            "bound d_PA <= exp(prefactor_log - n * exponent)",
            "extraction_limit": conditional_entropy_limit(src),
            "positive_iff": "rate < H(p) - inf_a I_aug_sandwiched(a)",
        },
    )


def pa_strong_converse_exponent(
    src: CQSource,
    rate: float,
    *,
    n: int | None = None,
    finite_n: bool = False,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """Privacy-amplification strong-converse exponent on a constant-type source.

    sup over alpha in (1/2,1) of ((1-alpha)/alpha)(I_petz_up(2-1/alpha) - S + R)
    with S as in pa_achievability_exponent; carries the 4 (n+1)^|X| prefactor.
    """
    _check_rate(rate)
    _check_n(n)
    entropy, label = _entropy_term(src, n, finite_n)
    return _sup_over_alpha(
        src, "petz-up", (entropy, -rate), points=points,
        prefactor_log=_converse_prefactor_log(src.alphabet_size, n),
        meta={
            "kind": "pa-converse",
            "rate": float(rate),
            "entropy_term": label,
            "convention": "sup_{a in (1/2,1)} ((1-a)/a)(I_petz_up(2-1/a) - S + R); "
            "bound d_PA >= 1 - exp(prefactor_log - n * exponent)",
            "extraction_limit": conditional_entropy_limit(src),
            "positive_iff": "rate > H(p) - I(X:B) at some grid alpha",
        },
    )


def conditional_entropy_limit(src: CQSource) -> float:
    """H(X|B) = H(p) - I(X:B): the maximal extractable randomness rate."""
    return dv.shannon_entropy(src.prior) - dv.holevo_mutual_info(src)


def dupuis_exponent(
    src: CQSource,
    rate: float,
    *,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """I.i.d. privacy-amplification exponent via the conditional Renyi entropy.

    sup over alpha in (1,2) of ((alpha-1)/alpha)(H*_alpha(X|B) - R).
    """
    _check_rate(rate)
    return _sup_over_alpha(
        src, "neg-conditional", (-rate,), points=points, prefactor_log=0.0,
        meta={
            "kind": "dupuis",
            "rate": float(rate),
            "convention": "sup_{a in (1,2)} ((a-1)/a)(H*_a(X|B) - R); "
            "bound d_PA(iid) <= exp(-n * exponent)",
            "extraction_limit": conditional_entropy_limit(src),
        },
    )


def iid_exponent_via_types(
    src: CQSource,
    rate: float,
    n: int,
    *,
    points: int = GRID_POINTS,
) -> ExponentReport:
    """I.i.d. privacy-amplification exponent by scanning all n-types.

    min over n-types q of sup over alpha in (1,2) of
    D(q||p) + ((alpha-1)/alpha)(H(q) - I_aug*(alpha; source with prior q) - R).
    The scan visits at most SCAN_TYPES_CAP types on a SCAN_POINTS inner alpha
    grid; the winning type is re-evaluated on the full grid for the reported
    curve.
    """
    _check_rate(rate)
    if n is None:
        raise InvalidParameterError("the i.i.d. exponent requires a blocklength n")
    _check_n(n)
    types = enumerate_n_types(src.alphabet_size, n, cap=SCAN_TYPES_CAP)
    prefactor = 1.5 * src.alphabet_size * math.log(n + 1.0)

    best_val = math.inf
    best: tuple[TypeDistribution, CQSource, tuple[float, float], float] | None = None
    for t in types:
        q = t.probabilities()
        dq = dv.kl_divergence(q, src.prior)
        if math.isinf(dq):
            continue
        src_q = CQSource(prior=q, states=src.states)
        shift = (dv.shannon_entropy(q), -rate)
        v = _sup_over_alpha(
            src_q, "augustin", shift, prefactor_log=prefactor, meta={}, offset=dq,
            points=SCAN_POINTS,
        ).exponent
        if v < best_val:
            best_val = v
            best = (t, src_q, shift, dq)
    if best is None:
        raise InvalidInputError("no n-type lies inside the support of the prior")

    best_type, src_q, shift, dq = best
    return _sup_over_alpha(
        src_q, "augustin", shift, offset=dq, points=points, prefactor_log=prefactor,
        meta={
            "kind": "iid",
            "rate": float(rate),
            "n": int(n),
            "minimizing_type": list(best_type.counts),
            "convention": "min_q sup_{a in (1,2)} D(q||p) + ((a-1)/a)"
            "(H(q) - I_aug_sandwiched(a; q) - R); "
            "bound <= exp(prefactor_log - n * exponent)",
        },
    )
