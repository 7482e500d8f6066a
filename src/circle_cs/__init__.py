"""Coherent states of a particle on a circle.

Numerical library for the shift/weight operator algebra [J, U] = U, its
non-unitary factorization X = U exp(-J - 1/2), and the coherent states
that X generates: overlaps through lattice Gaussian sums, expectation
values with closed-form approximations, a functional representation
with reproducing kernels, and a verification CLI that checks every
identity the library claims.

The package exports the public names of its five layers, each listed
once in that layer's __all__.
"""

from __future__ import annotations

# aliases, because `from .theta import *` re-binds the name `theta` to the function
from . import bargmann as _bargmann, coherent as _coherent, errors as _errors
from . import hilbert as _hilbert, theta as _theta
from .errors import *  # noqa: F403
from .theta import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .coherent import *  # noqa: F403
from .bargmann import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for layer in (_errors, _theta, _hilbert, _coherent, _bargmann) for name in layer.__all__
]
