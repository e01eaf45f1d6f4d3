"""Achievability and strong-converse exponents as suprema over alpha.

Every exponent has the form

    offset + sup_{alpha in (lo, hi)} ((1 - alpha)/alpha) (Q(alpha) - c)

with Q one of three rate-independent curves of a source, the rows of
``_FAMILIES``: the sandwiched Augustin information on (1, 2) (``augustin``),
the Petz Augustin-like quantity at order 2 - 1/alpha on (1/2, 1)
(``petz-up``), and -H*_alpha(X|B) on (1, 2) (``neg-conditional``).  Each
kind supplies its row, the shift c (the rate and an entropy-like term) and
the offset.  ``_sup_over_alpha`` evaluates the objective on a fixed grid
pulled slightly inside the interval (the endpoints are singular in the
prefactors) with one batched curve call, then refines the best bracket by
golden-section search.  The refinement evaluates, in one batched call, every
point the next LOOKAHEAD golden steps may need, so it takes the same steps
and returns the same floats as a search with one solve per step.  Exponents
are reported in nats per symbol; negative values mean the bound is vacuous
and are reported as-is.

The grid curve does not depend on the rate, so it is memoised: kinds and
rates that share a source share one sweep.  The memo is keyed by a digest of
the content (family, prior, states, grid, tol, max_iter), never by object
identity, so a rebuilt equal source hits.  It holds read-only value arrays
only, never an error, and evicts least-recently-used curves to stay within
CURVE_MEMO_BYTES.  No flag controls it.  Refinement points are not memoised.
A divergence function replaced after a curve is cached (a tracer or a test
double) is not called on a hit.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import divergence as dv
from .errors import ConvergenceError, InvalidInputError, InvalidParameterError
from .model import CQSource, TypeDistribution, enumerate_n_types, type_class_log_size

#: distance kept from the open interval endpoints when gridding alpha
ALPHA_MARGIN = 1e-4
#: default number of grid points for the alpha sweep
GRID_POINTS = 400
#: coarser grid used for the inner sweeps of the type-decomposition scan
SCAN_POINTS = 80
#: bracket width at which golden-section refinement stops
REFINE_XTOL = 1e-8
#: golden-section steps whose possible points one refinement batch evaluates
LOOKAHEAD = 3
#: memory the grid-curve memo may hold, keys and arrays included
CURVE_MEMO_BYTES = 1 << 20

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ExponentReport:
    """Optimized exponent, optimizing alpha, and the alpha-sweep curve."""

    exponent: float
    alpha_star: float
    curve: tuple[tuple[float, float], ...]
    prefactor_log: float
    meta: dict = field(default_factory=dict)


class _Family(NamedTuple):
    """Open alpha interval of a curve Q; Q over a grid and over refinement points.

    Both are called as (source, alphas, tol, max_iter).  ``refine`` also takes
    one order, and then raises the ConvergenceError of the family's
    single-point solve (``best`` an AugustinResult for the fixed-point rows).
    """

    lo: float
    hi: float
    curve: Callable[[CQSource, np.ndarray, float, int], np.ndarray]
    refine: Callable[[CQSource, np.ndarray, float, int], np.ndarray]


def _petz_up_points(src: CQSource, alphas) -> np.ndarray:
    # One point solve per order: the vectorised Petz curve rounds differently.
    return np.array([dv.augustin_petz_up(src, b) for b in np.atleast_1d(2.0 - 1.0 / alphas)])


# The divergence functions are looked up when called, so code that replaces
# one of them (a tracer, a test double) sees every call made from here, except
# grid curves the memo already holds.  The fixed-point sweep freezes each
# order on its own, so a batch of orders gives the same floats as one solve
# per order, and a memoised grid curve the same floats as a fresh sweep.
_FAMILIES = {
    "augustin": _Family(
        1.0, 2.0,
        lambda src, a, tol, it: dv.augustin_sandwiched_curve(src, a, tol, it),
        lambda src, a, tol, it: dv.augustin_sandwiched_curve(src, a, tol, it),
    ),
    "petz-up": _Family(
        0.5, 1.0,
        lambda src, a, tol, it: dv.augustin_petz_up_curve(src, 2.0 - 1.0 / a),
        lambda src, a, tol, it: _petz_up_points(src, a),
    ),
    "neg-conditional": _Family(
        1.0, 2.0,
        lambda src, a, tol, it: -dv.conditional_renyi_sandwiched_curve(src, a, tol, it),
        lambda src, a, tol, it: -dv.conditional_renyi_sandwiched_curve(src, a, tol, it),
    ),
}


class _CurveMemo:
    """Least-recently-used grid curves under a digest of their inputs."""

    def __init__(self):
        self._curves: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, key: bytes) -> np.ndarray | None:
        with self._lock:
            curve = self._curves.get(key)
            if curve is not None:
                self._curves.move_to_end(key)
            return curve

    def put(self, key: bytes, curve: np.ndarray) -> None:
        size = sys.getsizeof(key) + sys.getsizeof(curve)
        with self._lock:
            if size > CURVE_MEMO_BYTES or key in self._curves:
                return
            self._curves[key] = curve
            self.nbytes += size
            while self.nbytes > CURVE_MEMO_BYTES:
                old_key, old = self._curves.popitem(last=False)
                self.nbytes -= sys.getsizeof(old_key) + sys.getsizeof(old)

    def clear(self) -> None:
        with self._lock:
            self._curves.clear()
            self.nbytes = 0


_CURVES = _CurveMemo()


def _grid_curve(
    src: CQSource, family: str, alphas: np.ndarray, tol: float, max_iter: int
) -> np.ndarray:
    """The family's curve over the grid ``alphas``, computed once per content."""
    digest = hashlib.sha256(repr((family, tol, max_iter)).encode())
    for part in (src.prior, src.state_stack(), alphas):
        digest.update(repr((part.dtype.str, part.shape)).encode())
        digest.update(part.tobytes())
    key = digest.digest()
    curve = _CURVES.get(key)
    if curve is None:
        curve = np.array(_FAMILIES[family].curve(src, alphas, tol, max_iter))
        curve.setflags(write=False)
        _CURVES.put(key, curve)
    return curve


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise InvalidParameterError(f"rate must be finite and >= 0, got {rate}")


def _check_n(n: int | None) -> None:
    if n is not None and not (isinstance(n, numbers.Integral) and n >= 1):
        raise InvalidParameterError(f"n must be an integer >= 1, got {n}")


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


def _sup_over_alpha(
    src: CQSource,
    family: str,
    shift: tuple[float, ...],
    *,
    offset: float = -0.0,
    points: int = GRID_POINTS,
    tol: float = dv.DEFAULT_TOL,
    max_iter: int = dv.DEFAULT_MAX_ITER,
) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """offset + sup over the family's interval of ((1-a)/a)(Q(a) - c).

    The terms of ``shift`` are subtracted from Q one at a time, in the order
    each formula states them, so every objective rounds exactly as its closed
    form does.  The default offset is -0.0, the exact additive identity, so
    an objective without one keeps the sign of a zero.  Grids
    [lo+margin, hi-margin], then refines the best bracket.  Returns
    (alpha_star, value, curve).
    """
    if points < 2:
        raise InvalidParameterError(f"points must be >= 2, got {points}")
    fam = _FAMILIES[family]

    def objective(q, a):
        for c in shift:
            q = q - c
        return offset + (1.0 - a) / a * q

    alphas = np.linspace(fam.lo + ALPHA_MARGIN, fam.hi - ALPHA_MARGIN, points)
    vals = objective(_grid_curve(src, family, alphas, tol, max_iter), alphas)
    i = int(np.argmax(vals))
    best_a, best_v = float(alphas[i]), float(vals[i])
    ra, rv = _golden_max(
        lambda a: objective(fam.refine(src, a, tol, max_iter), a),
        float(alphas[max(i - 1, 0)]),
        float(alphas[min(i + 1, points - 1)]),
    )
    if rv > best_v:
        best_a, best_v = float(ra), float(rv)
    curve = tuple((float(a), float(v)) for a, v in zip(alphas, vals))
    return best_a, best_v, curve


def _entropy_term(src: CQSource, n: int | None, finite_n: bool) -> tuple[float, str]:
    """H(p) for the asymptotic form, (1/n) log|T^n_p| for the finite-n form."""
    if not finite_n:
        return dv.shannon_entropy(src.prior), "H(p)"
    if n is None:
        raise InvalidParameterError("finite-n exponent form requires a blocklength n")
    counts_f = src.prior * n
    counts = np.rint(counts_f).astype(int)
    if np.max(np.abs(counts_f - counts)) > 1e-9 or counts.sum() != n:
        raise InvalidInputError(f"prior {src.prior} is not an n-type at n={n}")
    t = TypeDistribution(n=n, counts=tuple(int(c) for c in counts))
    return type_class_log_size(t) / n, "log|T|/n"


def sc_achievability_exponent(
    src: CQSource,
    rate: float,
    *,
    n: int | None = None,
    points: int = GRID_POINTS,
    tol: float = dv.DEFAULT_TOL,
    max_iter: int = dv.DEFAULT_MAX_ITER,
) -> ExponentReport:
    """Soft-covering achievability exponent at codebook rate R (nats/symbol).

    sup over alpha in (1,2) of ((1-alpha)/alpha)(I_aug*(alpha) - R), where
    I_aug* is the sandwiched Augustin information.  The covering error decays
    like exp(-n * exponent); the exponent is positive iff R exceeds the
    quantum mutual information.
    """
    _check_rate(rate)
    _check_n(n)
    a, v, curve = _sup_over_alpha(
        src, "augustin", (rate,), points=points, tol=tol, max_iter=max_iter
    )
    mutual = dv.holevo_mutual_info(src)
    return ExponentReport(
        exponent=v,
        alpha_star=a,
        curve=curve,
        prefactor_log=0.0,
        meta={
            "kind": "sc-direct",
            "rate": float(rate),
            "convention": "sup_{a in (1,2)} ((1-a)/a)(I_aug_sandwiched(a) - R); "
            "bound d_SC <= exp(-n * exponent)",
            "mutual_info": mutual,
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
    a, v, curve = _sup_over_alpha(src, "petz-up", (rate,), points=points)
    return ExponentReport(
        exponent=v,
        alpha_star=a,
        curve=curve,
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
    tol: float = dv.DEFAULT_TOL,
    max_iter: int = dv.DEFAULT_MAX_ITER,
) -> ExponentReport:
    """Privacy-amplification achievability exponent on a constant-type source.

    sup over alpha in (1,2) of ((alpha-1)/alpha)(S - I_aug*(alpha) - R) where
    S is H(p) in the asymptotic form (prefactor (n+1)^(|X|/2)) or the exact
    (1/n) log|T^n_p| in the finite-n form (no prefactor).
    """
    _check_rate(rate)
    _check_n(n)
    entropy, label = _entropy_term(src, n, finite_n)
    a, v, curve = _sup_over_alpha(
        src, "augustin", (entropy, -rate), points=points, tol=tol, max_iter=max_iter
    )
    if finite_n:
        prefactor = 0.0
    elif n is not None:
        prefactor = 0.5 * src.alphabet_size * math.log(n + 1.0)
    else:
        prefactor = math.nan
    mutual = dv.holevo_mutual_info(src)
    return ExponentReport(
        exponent=v,
        alpha_star=a,
        curve=curve,
        prefactor_log=prefactor,
        meta={
            "kind": "pa-direct",
            "rate": float(rate),
            "entropy_term": label,
            "convention": "sup_{a in (1,2)} ((a-1)/a)(S - I_aug_sandwiched(a) - R); "
            "bound d_PA <= exp(prefactor_log - n * exponent)",
            "extraction_limit": dv.shannon_entropy(src.prior) - mutual,
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
    a, v, curve = _sup_over_alpha(src, "petz-up", (entropy, -rate), points=points)
    return ExponentReport(
        exponent=v,
        alpha_star=a,
        curve=curve,
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


def constant_type_advantage(
    src: CQSource,
    alpha: float,
    *,
    tol: float = dv.DEFAULT_TOL,
    max_iter: int = dv.DEFAULT_MAX_ITER,
) -> float:
    """(H(p) - I_aug*(alpha)) - H*_alpha(X|B), nonnegative for alpha > 1.

    This is the margin by which the constant-type exponent bracket dominates
    the conditional-Renyi-entropy bracket at the same order.
    """
    hp = dv.shannon_entropy(src.prior)
    aug = dv.augustin_sandwiched(src, alpha, tol, max_iter).value
    cond = dv.conditional_renyi_sandwiched(src, alpha, tol, max_iter)
    return (hp - aug) - cond


def dupuis_exponent(
    src: CQSource,
    rate: float,
    *,
    points: int = GRID_POINTS,
    tol: float = dv.DEFAULT_TOL,
    max_iter: int = dv.DEFAULT_MAX_ITER,
) -> ExponentReport:
    """I.i.d. privacy-amplification exponent via the conditional Renyi entropy.

    sup over alpha in (1,2) of ((alpha-1)/alpha)(H*_alpha(X|B) - R).
    """
    _check_rate(rate)
    a, v, curve = _sup_over_alpha(
        src, "neg-conditional", (-rate,), points=points, tol=tol, max_iter=max_iter
    )
    return ExponentReport(
        exponent=v,
        alpha_star=a,
        curve=curve,
        prefactor_log=0.0,
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
    scan_points: int = SCAN_POINTS,
    tol: float = dv.DEFAULT_TOL,
    max_iter: int = dv.DEFAULT_MAX_ITER,
    cap: int = 10**4,
) -> ExponentReport:
    """I.i.d. privacy-amplification exponent by scanning all n-types.

    min over n-types q of sup over alpha in (1,2) of
    D(q||p) + ((alpha-1)/alpha)(H(q) - I_aug*(alpha; source with prior q) - R).
    The scan uses a coarse inner alpha grid; the winning type is re-evaluated
    on the full grid for the reported curve.
    """
    _check_rate(rate)
    if n is None:
        raise InvalidParameterError("the i.i.d. exponent requires a blocklength n")
    _check_n(n)
    types = enumerate_n_types(src.alphabet_size, n, cap=cap)

    best_val = math.inf
    best: tuple[TypeDistribution, CQSource, tuple[float, float], float] | None = None
    for t in types:
        q = t.probabilities()
        dq = dv.kl_divergence(q, src.prior)
        if math.isinf(dq):
            continue
        src_q = CQSource(prior=q, states=src.states)
        shift = (dv.shannon_entropy(q), -rate)
        _, v, _ = _sup_over_alpha(
            src_q, "augustin", shift, offset=dq, points=scan_points, tol=tol, max_iter=max_iter
        )
        if v < best_val:
            best_val = v
            best = (t, src_q, shift, dq)
    if best is None:
        raise InvalidInputError("no n-type lies inside the support of the prior")

    best_type, src_q, shift, dq = best
    a, v, curve = _sup_over_alpha(
        src_q, "augustin", shift, offset=dq, points=points, tol=tol, max_iter=max_iter
    )
    return ExponentReport(
        exponent=v,
        alpha_star=a,
        curve=curve,
        prefactor_log=1.5 * src.alphabet_size * math.log(n + 1.0),
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
