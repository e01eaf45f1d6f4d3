"""Entropies, Renyi divergences, and Augustin-information optimizations.

Two quantum Renyi families appear: the Petz form
``D_a(rho||sigma) = log Tr[rho^a sigma^(1-a)] / (a-1)`` and the sandwiched form
``D*_a(rho||sigma) = log ||sigma^c rho sigma^c||_a^a / (a-1)`` with
``c = (1-a)/(2a)``.  The reference-state optimizations (sandwiched Augustin
information and sandwiched conditional Renyi entropy) have no closed form;
they are computed by a damped fixed-point iteration over density operators and
certified in the test suite against independent scalar and grid oracles rather
than by a convergence proof.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConvergenceError, InvalidParameterError
from .model import CQSource, marginal_state
from .qmat import (
    SUPPORT_CUTOFF,
    DensityOperator,
    HermitianOperator,
    _entries,
    _sym,
)

#: how much of a state may stick out of the reference support before the
#: divergence is reported as +inf
SUPPORT_LEAK_ATOL = 1e-10

#: defaults for the fixed-point optimizers
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000
#: weight of the new target in each fixed-point step
DAMPING = 0.3
#: weight of the maximally mixed state mixed in when an iterate loses support
SUPPORT_GUARD_EPS = 1e-9

INF = float("inf")


# -- classical / spectral basics ----------------------------------------------


def shannon_entropy(p) -> float:
    """H(p) = -sum p log p in nats, with 0 log 0 = 0."""
    arr = np.asarray(p, dtype=float)
    pos = arr[arr > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def kl_divergence(q, p) -> float:
    """D(q||p) in nats; +inf when supp(q) is not within supp(p)."""
    qa = np.asarray(q, dtype=float)
    pa = np.asarray(p, dtype=float)
    if np.any((qa > 0.0) & (pa <= 0.0)):
        return INF
    mask = qa > 0.0
    return float(np.sum(qa[mask] * np.log(qa[mask] / pa[mask])))


def _state_eigs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(arr)
    return np.clip(w, 0.0, None), v


def von_neumann_entropy(op) -> float:
    """H(rho) = -Tr rho log rho in nats."""
    w, _ = _state_eigs(_entries(op))
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def _support_leak(rho_arr: np.ndarray, sigma_w: np.ndarray, sigma_v: np.ndarray) -> float:
    """Weight of rho outside the support of sigma (given sigma's eigensystem)."""
    top = float(sigma_w[-1])
    if top <= 0.0:
        return float(np.trace(rho_arr).real)
    kernel = sigma_v[:, sigma_w <= top * SUPPORT_CUTOFF]
    if kernel.shape[1] == 0:
        return 0.0
    return float(np.einsum("ik,ij,jk->", kernel.conj(), rho_arr, kernel).real)


def _petz_trace(rho_arr: np.ndarray, sigma_arr: np.ndarray, a: float, b: float) -> float:
    """Tr[rho^a sigma^b] with both powers restricted to the supports."""
    lw, lv = _state_eigs(rho_arr)
    mw, mv = _state_eigs(sigma_arr)
    overlap = np.abs(lv.conj().T @ mv) ** 2
    la = np.where(lw > lw[-1] * SUPPORT_CUTOFF, lw, 0.0)
    mb = np.where(mw > mw[-1] * SUPPORT_CUTOFF, mw, 0.0)
    pa = np.zeros_like(la)
    pa[la > 0.0] = la[la > 0.0] ** a
    pb = np.zeros_like(mb)
    pb[mb > 0.0] = mb[mb > 0.0] ** b
    return float(pa @ overlap @ pb)


def _check_alpha(alpha: float, lo: float, hi: float) -> float:
    alpha = float(alpha)
    if not (lo < alpha <= hi) or alpha == 1.0:
        raise InvalidParameterError(
            f"alpha must lie in ({lo}, {hi}] excluding 1, got {alpha}"
        )
    return alpha


def petz_renyi(rho, sigma, alpha: float) -> float:
    """Order-alpha Petz-Renyi divergence; +inf on support violation."""
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise InvalidParameterError(f"alpha must be positive and != 1, got {alpha}")
    r, s = _entries(rho), _entries(sigma)
    if alpha > 1.0:
        mw, mv = _state_eigs(s)
        if _support_leak(r, mw, mv) > SUPPORT_LEAK_ATOL:
            return INF
    q = _petz_trace(r, s, alpha, 1.0 - alpha)
    if q <= 0.0:
        return INF
    return float(np.log(q) / (alpha - 1.0))


def sandwiched_renyi(rho, sigma, alpha: float) -> float:
    """Order-alpha sandwiched Renyi divergence; +inf on support violation."""
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise InvalidParameterError(f"alpha must be positive and != 1, got {alpha}")
    r, s = _entries(rho), _entries(sigma)
    mw, mv = _state_eigs(s)
    if alpha > 1.0 and _support_leak(r, mw, mv) > SUPPORT_LEAK_ATOL:
        return INF
    c = (1.0 - alpha) / (2.0 * alpha)
    top = float(mw[-1])
    vals = np.zeros_like(mw)
    mask = mw > top * SUPPORT_CUTOFF if top > 0.0 else np.zeros_like(mw, dtype=bool)
    vals[mask] = mw[mask] ** c
    sc = (mv * vals) @ mv.conj().T
    omega = _sym(sc @ r @ sc)
    ow = np.clip(np.linalg.eigvalsh(omega), 0.0, None)
    q = float(np.sum(ow**alpha))
    if q <= 0.0:
        return INF
    return float(np.log(q) / (alpha - 1.0))


def umegaki(rho, sigma) -> float:
    """Umegaki relative entropy Tr[rho(log rho - log sigma)], logs on supports."""
    r, s = _entries(rho), _entries(sigma)
    mw, mv = _state_eigs(s)
    if _support_leak(r, mw, mv) > SUPPORT_LEAK_ATOL:
        return INF
    lw, lv = _state_eigs(r)
    pos = lw > 0.0
    ent = float(np.sum(lw[pos] * np.log(lw[pos])))
    overlap = np.abs(lv.conj().T @ mv) ** 2
    smask = mw > mw[-1] * SUPPORT_CUTOFF
    cross = float(
        lw[pos] @ overlap[np.ix_(pos, smask)] @ np.log(mw[smask])
    )
    return ent - cross


def holevo_mutual_info(src: CQSource) -> float:
    """I(X:B) = H(rho_B) - sum_x p(x) H(rho_x) in nats."""
    ent_avg = sum(
        float(p) * von_neumann_entropy(s)
        for p, s in zip(src.prior, src.states)
        if p > 0.0
    )
    return von_neumann_entropy(marginal_state(src)) - ent_avg


# -- fixed-point optimizations over the reference state ------------------------


@dataclass(frozen=True)
class AugustinResult:
    """Optimized value (nats), minimizing state, and convergence diagnostics."""

    value: float
    optimizer: DensityOperator
    iterations: int
    final_step: float


def _positive_part(src: CQSource) -> tuple[np.ndarray, np.ndarray]:
    """States and prior restricted to symbols with positive probability."""
    mask = src.prior > 0.0
    return src.state_stack()[mask], src.prior[mask]


def _sweep_fixed_point(
    states: np.ndarray,
    prior: np.ndarray,
    alphas: np.ndarray,
    *,
    conditional: bool,
    tol: float,
    max_iter: int,
):
    """Damped fixed-point iteration, vectorized over a stack of alpha values.

    For the Augustin mode the map averages the per-symbol normalized
    alpha-tilted states with weights p(x); for the conditional mode it sums
    the raw tilted states with weights p(x)^alpha and normalizes once.  Each
    alpha slice evolves independently and is frozen as soon as its update step
    (operator norm of the change) drops below tol, so the sweep reproduces the
    single-alpha iteration exactly.

    Returns (values, sigmas, iterations, final_steps, converged).
    """
    alphas = np.asarray(alphas, dtype=float)
    na = alphas.size
    dim = states.shape[-1]
    cexp = (1.0 - alphas) / (2.0 * alphas)

    marginal = np.einsum("x,xij->ij", prior, states)
    sigma = np.repeat(marginal[None, :, :], na, axis=0)
    active = np.ones(na, dtype=bool)
    iterations = np.zeros(na, dtype=int)
    steps = np.full(na, np.inf)
    eye = np.eye(dim)

    if conditional:
        weights = prior[None, :] ** alphas[:, None]

    for it in range(1, max_iter + 1):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        sig = sigma[idx]

        w, v = np.linalg.eigh(sig)
        w = np.clip(w, 0.0, None)
        top = w[:, -1]
        supp = w > top[:, None] * SUPPORT_CUTOFF
        proj = np.einsum("aij,aj,akj->aik", v, supp.astype(float), v.conj())
        leak = np.einsum("xij,aji->ax", states, eye[None] - proj).real.max(axis=1)
        guard = leak > SUPPORT_LEAK_ATOL * 1e-2
        if guard.any():
            sig = sig.copy()
            sig[guard] = (1.0 - SUPPORT_GUARD_EPS) * sig[guard] + (
                SUPPORT_GUARD_EPS / dim
            ) * eye
            w, v = np.linalg.eigh(sig)
            w = np.clip(w, 0.0, None)
            top = w[:, -1]
            supp = w > top[:, None] * SUPPORT_CUTOFF

        vals = np.where(supp, w, 1.0) ** cexp[idx, None] * supp
        sc = np.einsum("aij,aj,akj->aik", v, vals, v.conj())
        omega = _sym(np.einsum("aij,xjk,akl->axil", sc, states, sc))
        mu, u = np.linalg.eigh(omega)
        mu = np.clip(mu, 0.0, None)
        powers = mu ** alphas[idx, None, None]
        z = powers.sum(axis=-1)

        if conditional:
            tilted = np.einsum("axij,axj,axkj->axik", u, powers, u.conj())
            target = np.einsum("ax,axij->aij", weights[idx], tilted)
        else:
            tilted = np.einsum("axij,axj,axkj->axik", u, powers, u.conj())
            tilted /= z[:, :, None, None]
            target = np.einsum("x,axij->aij", prior, tilted)
        target = _sym(target)
        target /= np.trace(target, axis1=-2, axis2=-1).real[:, None, None]

        new = (1.0 - DAMPING) * sig + DAMPING * target
        diff = new - sig
        step = np.abs(np.linalg.eigvalsh(diff)).max(axis=-1)

        sigma[idx] = new
        iterations[idx] = it
        steps[idx] = step
        active[idx] = step >= tol

    values = _objective_at(states, prior, alphas, sigma, conditional=conditional)
    return values, sigma, iterations, steps, ~active


def _objective_at(
    states: np.ndarray,
    prior: np.ndarray,
    alphas: np.ndarray,
    sigma: np.ndarray,
    *,
    conditional: bool,
) -> np.ndarray:
    """Evaluate the optimization objective at given reference states.

    Augustin mode: sum_x p(x) D*_alpha(rho_x || sigma).  Conditional mode: the
    sandwiched conditional Renyi entropy value -D*_alpha(rho_XB || 1 x sigma).
    Each symbol is handled in the log domain to avoid underflow at extreme
    alpha.
    """
    alphas = np.asarray(alphas, dtype=float)
    cexp = (1.0 - alphas) / (2.0 * alphas)
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w, 0.0, None)
    top = w[:, -1]
    supp = w > top[:, None] * SUPPORT_CUTOFF
    vals = np.where(supp, w, 1.0) ** cexp[:, None] * supp
    sc = np.einsum("aij,aj,akj->aik", v, vals, v.conj())
    omega = _sym(np.einsum("aij,xjk,akl->axil", sc, states, sc))
    mu = np.clip(np.linalg.eigvalsh(omega), 0.0, None)
    powers = mu ** alphas[:, None, None]
    z = powers.sum(axis=-1)  # (na, K)
    with np.errstate(divide="ignore"):
        logz = np.log(z)
    if conditional:
        logterms = alphas[:, None] * np.log(prior[None, :]) + logz
        g = logsumexp(logterms, axis=1) / (alphas - 1.0)
        return -g
    return (prior[None, :] * logz).sum(axis=1) / (alphas - 1.0)


def _result(values, sigmas, iterations, steps) -> AugustinResult:
    """The AugustinResult of the first order of a sweep."""
    return AugustinResult(
        value=float(values[0]),
        optimizer=DensityOperator(HermitianOperator(sigmas[0])),
        iterations=int(iterations[0]),
        final_step=float(steps[0]),
    )


def _fixed_point(src: CQSource, alpha, conditional: bool, tol, max_iter):
    """Validate, run the fixed-point sweep, and raise if any order failed.

    ``alpha`` is one order (a scalar solve) or an array of them (a curve).
    The Augustin mode accepts orders in (0, 2], the conditional mode (1, 2].
    The ConvergenceError of a scalar solve carries its AugustinResult as
    ``best``; that of a curve carries the value array.  Returns (values,
    sigmas, iterations, final_steps).
    """
    lo, what = (1.0, "conditional-entropy") if conditional else (0.0, "Augustin")
    single = np.ndim(alpha) == 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    for a in alphas:
        _check_alpha(a, lo, 2.0)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidParameterError(f"tol must be finite and positive, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise InvalidParameterError(f"max_iter must be an integer >= 1, got {max_iter}")
    states, prior = _positive_part(src)
    values, sigmas, iters, steps, ok = _sweep_fixed_point(
        states, prior, alphas, conditional=conditional, tol=tol, max_iter=max_iter
    )
    if ok.all():
        return values, sigmas, iters, steps
    if single:
        best = _result(values, sigmas, iters, steps)
        raise ConvergenceError(
            f"{what} iteration did not reach tol={tol} in {max_iter} steps "
            f"(last step {best.final_step:.3e})",
            best=best,
        )
    failed = alphas[~ok]
    raise ConvergenceError(
        f"{what} sweep failed to converge at {failed.size} of {alphas.size} orders, "
        f"alpha {failed[0]:.6g} to {failed[-1]:.6g} (worst step {steps[~ok].max():.3e})",
        best=values,
    )


def augustin_sandwiched(
    src: CQSource,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> AugustinResult:
    """Order-alpha sandwiched Augustin information of a c-q source.

    Minimizes sum_x p(x) D*_alpha(rho_x || sigma) over density operators sigma
    by damped fixed-point iteration started at the source marginal.  The
    reported value is the objective evaluated at the final iterate, hence
    always an upper bound on the true infimum.
    """
    return _result(*_fixed_point(src, alpha, False, tol, max_iter))


def augustin_petz_up(src: CQSource, alpha: float) -> float:
    """Petz-type Augustin-like quantity: p-average of D_alpha(rho_x || rho_B).

    No optimization is involved; the reference state is fixed to the source
    marginal.
    """
    alpha = _check_alpha(alpha, 0.0, 2.0)
    rho_b = marginal_state(src).entries
    total = 0.0
    for p, s in zip(src.prior, src.states):
        if p > 0.0:
            total += float(p) * petz_renyi(s, rho_b, alpha)
    return float(total)


def conditional_renyi_sandwiched(
    src: CQSource,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Sandwiched conditional Renyi entropy H*_alpha(X|B) for alpha in (1, 2].

    Computed as -min_sigma (1/(alpha-1)) log sum_x p(x)^alpha
    exp((alpha-1) D*_alpha(rho_x||sigma)) with the same damped fixed-point
    scheme as the Augustin optimization.
    """
    values = _fixed_point(src, alpha, True, tol, max_iter)[0]
    return float(values[0])


def conditional_renyi_petz_down(src: CQSource, alpha: float) -> float:
    """Petz-type conditional Renyi entropy -D_alpha(rho_XB || 1 x rho_B)."""
    alpha = _check_alpha(alpha, 0.0, 2.0)
    rho_b = marginal_state(src).entries
    logterms = []
    for p, s in zip(src.prior, src.states):
        if p > 0.0:
            q = _petz_trace(s.entries, rho_b, alpha, 1.0 - alpha)
            if q <= 0.0:
                return -INF if alpha < 1.0 else INF
            logterms.append(alpha * np.log(float(p)) + np.log(q))
    return float(-logsumexp(logterms) / (alpha - 1.0))


def augustin_sandwiched_curve(
    src: CQSource,
    alphas,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Sandwiched Augustin information over a grid of alpha values.

    Same semantics per alpha as augustin_sandwiched; the iteration is batched
    over the grid for speed.  Raises ConvergenceError if any point fails.
    """
    return _fixed_point(src, alphas, False, tol, max_iter)[0]


def conditional_renyi_sandwiched_curve(
    src: CQSource,
    alphas,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """H*_alpha(X|B) over a grid of alpha values in (1, 2]."""
    return _fixed_point(src, alphas, True, tol, max_iter)[0]


def augustin_petz_up_curve(src: CQSource, alphas) -> np.ndarray:
    """Petz Augustin-like quantity over a grid of orders, sharing spectra.

    All orders reuse one eigendecomposition per symbol state plus one of the
    marginal, so the whole curve costs barely more than a single point.
    """
    alphas = np.asarray(alphas, dtype=float)
    for a in alphas:
        _check_alpha(a, 0.0, 2.0)
    rho_b = marginal_state(src).entries
    mw, mv = _state_eigs(rho_b)
    smask = mw > mw[-1] * SUPPORT_CUTOFF
    out = np.zeros_like(alphas)
    for p, s in zip(src.prior, src.states):
        if p <= 0.0:
            continue
        lw, lv = _state_eigs(s.entries)
        lmask = lw > lw[-1] * SUPPORT_CUTOFF
        overlap = np.abs(lv.conj().T @ mv) ** 2
        la = lw[lmask][:, None] ** alphas[None, :]  # (r, na)
        mb = mw[smask][:, None] ** (1.0 - alphas[None, :])
        q = np.einsum("ia,ij,ja->a", la, overlap[np.ix_(lmask, smask)], mb)
        out += float(p) * np.log(q) / (alphas - 1.0)
    return out
