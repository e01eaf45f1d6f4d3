import numpy as np
import pytest

from qpamp import divergence as dv
from qpamp.model import CQSource, ConstantTypeSource, TypeDistribution, marginal_state
from qpamp.qmat import DensityOperator, HermitianOperator, random_density, random_pure


def diag_state(row) -> DensityOperator:
    return DensityOperator(HermitianOperator(np.diag(np.asarray(row, dtype=complex))))


def diag_source(p, W) -> CQSource:
    """Classical source: diagonal states from the channel rows W[x]."""
    return CQSource(prior=np.asarray(p, dtype=float), states=tuple(diag_state(w) for w in W))


def rand_source(rng, alphabet_size, dim, *, mix=0.0, pure=False) -> CQSource:
    make = (lambda: random_pure(rng, dim)) if pure else (lambda: random_density(rng, dim, mix=mix))
    return CQSource(
        prior=rng.dirichlet(np.ones(alphabet_size)),
        states=tuple(make() for _ in range(alphabet_size)),
    )


def petz_up_by_symbol(src: CQSource, alpha: float) -> float:
    """The Petz Augustin-like quantity summed one Petz-Renyi divergence at a time."""
    rho_b = marginal_state(src)
    total = 0.0
    for p, s in zip(src.prior, src.states):
        if p > 0.0:
            total += float(p) * dv.petz_renyi(s, rho_b, alpha)
    return total


#: (n, counts) pairs with |T^n| <= 12, keyed by alphabet size
SMALL_TYPES = {
    2: [(2, (1, 1)), (3, (2, 1)), (4, (3, 1)), (4, (2, 2)), (5, (4, 1)), (5, (3, 2))],
    3: [(2, (1, 1, 0)), (3, (1, 1, 1)), (4, (2, 2, 0)), (4, (2, 1, 1))],
}


def rand_instance(rng, *, alphabet_size=None, dim=None, mix=0.1, pure_prob=0.25):
    """Random constant-type instance within the desk-scale sweep limits."""
    k = alphabet_size or int(rng.choice([2, 3]))
    d = dim or int(rng.choice([2, 3]))
    n, counts = SMALL_TYPES[k][int(rng.integers(len(SMALL_TYPES[k])))]
    if d == 3 and n == 5:
        n, counts = 4, (2, 2) if k == 2 else (2, 1, 1)  # keep dims <= 81
    pure = rng.random() < pure_prob
    make = (lambda: random_pure(rng, d)) if pure else (lambda: random_density(rng, d, mix=mix))
    states = tuple(make() for _ in range(k))
    return ConstantTypeSource.from_states(states, TypeDistribution(n=n, counts=counts))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
