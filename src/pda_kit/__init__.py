"""Privacy-preserving polynomial aggregation protocols.

Two schemes share one substrate: an arithmetic sum/product protocol over
Z_p whose users keep a linear number of polynomial-share keys, and an
oblivious multivariate polynomial evaluation framework that blinds
product terms through the aggregator's additively homomorphic
encryption.  Ceremonies run on a deterministic in-memory broadcast bus
so every run is replayable from its seed.
"""

from .bus import Bus, CeremonyResult, Message
from .errors import ProtocolError
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "CeremonyResult",
    "Message",
    "ProtocolError",
    "Rng",
    "__version__",
]
