"""Physical-layer-security lab: split-BSC wiretap channels, coset codes,
equivocation measurement, quantization-loss analysis, and an LPN-based
shared-key cryptosystem built on the same stochastic encoder.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them."""

from .channels import *
from .coset import *
from .gf2 import *
from .infometrics import *
from .lpn import *
from .prng import *

__version__ = "0.1.0"
