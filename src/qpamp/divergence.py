"""Entropies, Renyi divergences, and Augustin-information optimizations.

Two quantum Renyi families appear: the Petz form
``D_a(rho||sigma) = log Tr[rho^a sigma^(1-a)] / (a-1)`` and the sandwiched form
``D*_a(rho||sigma) = log ||sigma^c rho sigma^c||_a^a / (a-1)`` with
``c = (1-a)/(2a)``.  The reference-state optimizations (sandwiched Augustin
information and sandwiched conditional Renyi entropy) have no closed form;
they are computed by a damped fixed-point iteration over density operators and
certified in the test suite against independent scalar and grid oracles rather
than by a convergence proof.  The module needs numpy only: its log-sum-exp is
a private kernel that rounds as SciPy's ``logsumexp`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidParameterError
from .model import CQSource, marginal_state
from .qmat import SUPPORT_CUTOFF, DensityOperator, _entries, _sym

#: how much of a state may stick out of the reference support before the
#: divergence is reported as +inf
SUPPORT_LEAK_ATOL = 1e-10

#: stopping rule of every fixed-point solver, read when called
TOL = 1e-9
MAX_ITER = 10000
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


def _logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over ``axis`` of a real array, as SciPy 1.17 rounds it.

    The entries equal to the maximum are taken out of the shifted sum and
    added back as log(count), so the result is log1p(s) + log(m) + a_max.
    Where that is not finite (all -inf, an inf or a nan), the direct
    log(sum(exp(a))) is returned instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(at_max, -INF, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
    return np.squeeze(np.where(np.isfinite(out), out, direct), axis=axis)[()]


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
    return float(_support_powers(lw, [a])[0] @ overlap @ _support_powers(mw, [b])[0])


def _check_alpha(alpha: float, lo: float, hi: float) -> float:
    alpha = float(alpha)
    if not (lo < alpha <= hi) or alpha == 1.0:
        raise InvalidParameterError(
            f"alpha must lie in ({lo}, {hi}] excluding 1, got {alpha}"
        )
    return alpha


def _orders(alpha, conditional: bool) -> np.ndarray:
    """``alpha`` as an array of orders, each in the conditional (1, 2] or the Augustin (0, 2]."""
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    for a in alphas:
        _check_alpha(a, 1.0 if conditional else 0.0, 2.0)
    return alphas


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


def _support_eigh(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystems of a stack of states, eigenvalues clipped at 0, and their supports."""
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w, 0.0, None)
    return w, v, w > w[:, -1:] * SUPPORT_CUTOFF


def _tilt(states, cexp, w, v, supp) -> np.ndarray:
    """sigma^c rho_x sigma^c on the support of sigma, shape (orders, |X|, d, d)."""
    vals = np.where(supp, w, 1.0) ** cexp[:, None] * supp
    sc = np.einsum("aij,aj,akj->aik", v, vals, v.conj())
    return _sym(np.einsum("aij,xjk,akl->axil", sc, states, sc))


def _sweep_fixed_point(states, prior, alphas, start, conditional: bool):
    """Damped fixed-point iteration, vectorized over a stack of alpha values.

    For the Augustin mode the map averages the per-symbol normalized
    alpha-tilted states with weights p(x); for the conditional mode it sums
    the raw tilted states with weights p(x)^alpha and normalizes once.  Every
    alpha slice starts at the state ``start``, evolves independently and is
    frozen as soon as its update step (operator norm of the change) drops
    below TOL, so the sweep reproduces the single-alpha iteration from the
    same start exactly.  A non-finite step (an iterate whose sigma^c
    underflowed or overflowed) freezes its slice unconverged, as MAX_ITER does.

    Returns (sigmas, iterations, final_steps, converged).
    """
    alphas = np.asarray(alphas, dtype=float)
    na = alphas.size
    dim = states.shape[-1]
    cexp = (1.0 - alphas) / (2.0 * alphas)

    sigma = np.repeat(start[None, :, :], na, axis=0)
    active = np.ones(na, dtype=bool)
    iterations = np.zeros(na, dtype=int)
    steps = np.full(na, np.inf)
    eye = np.eye(dim)

    if conditional:
        weights = prior[None, :] ** alphas[:, None]

    for it in range(1, MAX_ITER + 1):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        sig = sigma[idx]

        w, v, supp = _support_eigh(sig)
        # on full support the kernel is empty and the leak is 0 (see _support_leak)
        if not supp.all():
            proj = np.einsum("aij,aj,akj->aik", v, supp.astype(float), v.conj())
            leak = np.einsum("xij,aji->ax", states, eye[None] - proj).real.max(axis=1)
            guard = leak > SUPPORT_LEAK_ATOL * 1e-2
            if guard.any():
                sig = sig.copy()
                sig[guard] = (1.0 - SUPPORT_GUARD_EPS) * sig[guard] + (
                    SUPPORT_GUARD_EPS / dim
                ) * eye
                w, v, supp = _support_eigh(sig)

        mu, u = np.linalg.eigh(_tilt(states, cexp[idx], w, v, supp))
        mu = np.clip(mu, 0.0, None)
        powers = mu ** alphas[idx, None, None]
        z = powers.sum(axis=-1)

        tilted = np.einsum("axij,axj,axkj->axik", u, powers, u.conj())
        if conditional:
            target = np.einsum("ax,axij->aij", weights[idx], tilted)
        else:
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
        active[idx] = np.isfinite(step) & (step >= TOL)

    return sigma, iterations, steps, steps < TOL


def objective_at(src: CQSource, alphas, state, *, conditional: bool) -> np.ndarray:
    """The fixed-point objective over ``alphas`` with the reference state held at ``state``.

    ``state`` is one d_B x d_B state for every order or a stack of one per
    order; nothing is solved.  Augustin mode: sum_x p(x) D*_alpha(rho_x ||
    sigma), which augustin_sandwiched minimizes over orders in (0, 2].
    Conditional mode: -D*_alpha(rho_XB || 1 x sigma), which
    conditional_renyi_sandwiched maximizes over orders in (1, 2].
    """
    alphas, d = _orders(alphas, conditional), src.dim_b
    if np.shape(state) not in ((d, d), (alphas.size, d, d)):
        raise InvalidParameterError(f"state must be {d}x{d} or one per order: {np.shape(state)}")
    sigma = np.broadcast_to(state, (alphas.size, d, d))
    return _objective(*_positive_part(src), alphas, sigma, conditional)


def _objective(states, prior, alphas, sigma, conditional: bool) -> np.ndarray:
    """objective_at over the positive part ``states``, ``prior``; each symbol in log domain."""
    cexp = (1.0 - alphas) / (2.0 * alphas)
    omega = _tilt(states, cexp, *_support_eigh(sigma))
    mu = np.clip(np.linalg.eigvalsh(omega), 0.0, None)
    powers = mu ** alphas[:, None, None]
    z = powers.sum(axis=-1)  # (na, K)
    with np.errstate(divide="ignore"):
        logz = np.log(z)
    if conditional:
        logterms = alphas[:, None] * np.log(prior[None, :]) + logz
        g = _logsumexp(logterms, axis=1) / (alphas - 1.0)
        return -g
    return (prior[None, :] * logz).sum(axis=1) / (alphas - 1.0)


def _result(values, sigmas, iterations, steps) -> AugustinResult:
    """The AugustinResult of the first order of a sweep."""
    return AugustinResult(
        value=float(values[0]),
        optimizer=DensityOperator(sigmas[0]),
        iterations=int(iterations[0]),
        final_step=float(steps[0]),
    )


def _fixed_point(src: CQSource, alpha, conditional: bool, start=None):
    """Validate, run the fixed-point sweep, and raise if any order failed.

    ``alpha`` is one order (a scalar solve) or an array of them (a curve).
    Every order starts at the d_B x d_B state ``start``, or at the source
    marginal when it is None.  The ConvergenceError of a scalar solve
    carries its AugustinResult as ``best``; that of a curve carries the
    value array.  Returns (values, sigmas, iterations, final_steps).
    """
    what = "conditional-entropy" if conditional else "Augustin"
    single = np.ndim(alpha) == 0
    alphas = _orders(alpha, conditional)
    states, prior = _positive_part(src)
    if start is None:
        start = np.einsum("x,xij->ij", prior, states)
    # an underflowed iterate divides 0 by 0; its nan step fails the order below
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas, iters, steps, ok = _sweep_fixed_point(states, prior, alphas, start, conditional)
        values = _objective(states, prior, alphas, sigmas, conditional)
    if ok.all():
        return values, sigmas, iters, steps
    if single:
        raise ConvergenceError(
            f"{what} iteration at alpha {alphas[0]:.6g} did not reach tol={TOL} in "
            f"{iters[0]} steps (last step {steps[0]:.3e})",
            best=_result(values, sigmas, iters, steps) if np.isfinite(sigmas).all() else None,
        )
    failed = alphas[~ok]
    raise ConvergenceError(
        f"{what} sweep failed to converge at {failed.size} of {alphas.size} orders, "
        f"alpha {failed[0]:.6g} to {failed[-1]:.6g} (worst step {steps[~ok].max():.3e})",
        best=values,
    )


def augustin_sandwiched(src: CQSource, alpha: float) -> AugustinResult:
    """Order-alpha sandwiched Augustin information of a c-q source.

    Minimizes sum_x p(x) D*_alpha(rho_x || sigma) over density operators sigma
    by damped fixed-point iteration started at the source marginal.  The
    reported value is the objective evaluated at the final iterate, hence
    always an upper bound on the true infimum.
    """
    return _result(*_fixed_point(src, alpha, False))


def conditional_renyi_sandwiched(src: CQSource, alpha: float) -> float:
    """Sandwiched conditional Renyi entropy H*_alpha(X|B) for alpha in (1, 2].

    Computed as -min_sigma (1/(alpha-1)) log sum_x p(x)^alpha
    exp((alpha-1) D*_alpha(rho_x||sigma)) with the same damped fixed-point
    scheme as the Augustin optimization.
    """
    return float(_fixed_point(src, alpha, True)[0][0])


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
    return float(-_logsumexp(logterms) / (alpha - 1.0))


class Curve(NamedTuple):
    """A curve's value at each order, and its fixed-point optimizer there (None: a closed form)."""

    values: np.ndarray
    optimizers: np.ndarray | None


def augustin_sandwiched_curve(src: CQSource, alphas, start=None) -> Curve:
    """Sandwiched Augustin information over an array of alpha values in (0, 2].

    Same semantics per alpha as augustin_sandwiched, batched over the orders.
    Every order starts at the d_B x d_B state ``start``, or at the source
    marginal when it is None.  Raises ConvergenceError if any order fails;
    given one order, it raises the error augustin_sandwiched would.
    """
    return Curve(*_fixed_point(src, alphas, False, start)[:2])


def conditional_renyi_sandwiched_curve(src: CQSource, alphas, start=None) -> Curve:
    """H*_alpha(X|B) over an array of orders in (1, 2], started as augustin_sandwiched_curve."""
    return Curve(*_fixed_point(src, alphas, True, start)[:2])


def _support_powers(w: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """w ** t on the support of w and 0 off it, one row per exponent t.

    Each row takes its exponent as a Python float: numpy computes t = 2, 0.5
    and -1 exactly then, and a broadcast power may not.
    """
    mask = w > w[-1] * SUPPORT_CUTOFF
    base = np.where(mask, w, 1.0)
    return np.array([base ** float(t) for t in exps]).reshape(-1, w.size) * mask


def augustin_petz_up_curve(src: CQSource, alphas) -> np.ndarray:
    """Petz-type Augustin-like quantity: p-average of D_alpha(rho_x || rho_B).

    No optimization is involved; the reference state is fixed to the source
    marginal.  ``alphas`` is one order or an array of them, and the result has
    its shape.  All orders reuse one eigendecomposition per symbol state plus
    one of the marginal, and each order rounds exactly as petz_renyi does.
    """
    orders = _orders(alphas, False).reshape(-1)
    rho_b = marginal_state(src).entries
    mw, mv = _state_eigs(rho_b)
    pb = _support_powers(mw, 1.0 - orders)[:, :, None]
    out = np.zeros_like(orders)
    for p, s in zip(src.prior, src.states):
        if p <= 0.0:
            continue
        lw, lv = _state_eigs(s.entries)
        overlap = np.abs(lv.conj().T @ mv) ** 2
        q = (_support_powers(lw, orders)[:, None, :] @ overlap @ pb)[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(q > 0.0, np.log(q) / (orders - 1.0), INF)
        if _support_leak(s.entries, mw, mv) > SUPPORT_LEAK_ATOL:
            value[orders > 1.0] = INF
        out += float(p) * value
    return out.reshape(np.shape(alphas))
