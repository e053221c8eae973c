"""oqmap: a numerical laboratory for open chaotic maps on the torus.

The package covers the full pipeline from exact classical symbolic
dynamics of D-symbol open baker maps (escape volumes, trapped-set
covers, topological pressure) through their quantizations (standard
Fourier blocks and the Walsh tensor model) to spectral analysis of the
resulting subunitary matrices: resonance counting and fractal Weyl
fits, pressure-based spectral-radius brackets, an exact Schur-complement
effective Hamiltonian on the trapped cover, and Husimi phase-space
localization of metastable eigenmodes.
"""

__version__ = "0.1.0"  # before the imports: cli imports it from here

from . import classical, errors, phasespace, quantize, spectral
from .classical import *
from .errors import *
from .phasespace import *
from .quantize import *
from .spectral import *

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *classical.__all__, *errors.__all__,
           *phasespace.__all__, *quantize.__all__, *spectral.__all__]
