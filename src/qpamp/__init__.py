"""Privacy-amplification / soft-covering toolkit for classical-quantum sources.

Subpackages:

- ``qmat``       dense Hermitian operator algebra
- ``model``      c-q sources, n-types, type classes
- ``divergence`` entropies, Renyi divergences, Augustin information
- ``simulate``   exact and Monte Carlo PA / SC distances over a type class
- ``exponent``   achievability and strong-converse exponent formulas
- ``wiretap``    c-q wiretap channel secrecy bounds and leakage simulation
- ``cli``        JSON/CSV command-line front end
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConvergenceError,
    InvalidInputError,
    InvalidParameterError,
)

__all__ = [
    "CapacityError",
    "ConvergenceError",
    "InvalidInputError",
    "InvalidParameterError",
    "__version__",
]
