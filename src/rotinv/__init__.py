"""rotinv: proper rotations and rotational-invariance ("objectivity") testing.

Construct and Haar-sample members of the special orthogonal group,
decide invariance exactly where a characterization exists (radial sets,
quadratic forms), and test it statistically for black-box functions
written in a small expression language.
"""

__version__ = "0.1.0"

from . import expr, linalg, objectivity, rotation
from .linalg import *  # noqa: F401,F403
from .rotation import *  # noqa: F401,F403
from .objectivity import *  # noqa: F401,F403
from .expr import *  # noqa: F401,F403

__all__ = ["__version__", *linalg.__all__, *rotation.__all__, *objectivity.__all__, *expr.__all__]
