"""Ensemble-variational data assimilation at desk scale.

Exact Kalman filter/smoother recursions, perturbed-observation ensemble
filters/smoothers with matrix-free covariance products, Levenberg-
Marquardt solvers for the weak-constraint 4DVAR objective (exact,
tangent-ensemble, and finite-difference-ensemble variants), and a Monte
Carlo harness that measures their convergence rates.  All randomness is
keyed and replayable, so algorithm variants can be coupled draw for draw.
"""

from . import ensemble, errors, fourdvar, kalman, numerics, problem, streams, study, toys
from .ensemble import *
from .errors import *
from .fourdvar import *
from .kalman import *
from .numerics import *
from .problem import *
from .streams import *
from .study import *
from .toys import *

__version__ = "0.1.0"

# Each module's __all__ is the one declaration of its public names.
__all__ = [name for module in (ensemble, errors, fourdvar, kalman, numerics, problem, streams, study, toys)
           for name in module.__all__]
