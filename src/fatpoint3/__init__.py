"""Dimensions of linear systems of surfaces in P^3 with fat base points.

The package pairs a conjectural reduction procedure (cubic Cremona transforms,
fixed-component and base-quadric removal, base-line corrections) with an exact
prime-field interpolation oracle that measures the true dimension as a matrix
corank at random general points.

Each module declares its public names once, in its ``__all__``; the package
re-exports them all.
"""

from .cremona import *
from .literals import *
from .oracle import *
from .speciality import *
from .systems import *

__version__ = "0.1.0"
