"""mwoptical: microwave-to-optical conversion estimates for microwave-driven
metastable hydrogen.

The pipeline runs from hydrogenic dipole matrix elements through single-atom
stimulated emission to orientation-averaged ensemble conversion efficiency,
entirely in closed form, with a CSV-emitting CLI on top.
"""

from .units import *
from .hydrogen import *
from .coupling import *
from .dynamics import *
from .ensemble import *

__version__ = "0.1.0"
