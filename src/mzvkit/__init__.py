"""Toolkit for symmetric multiple zeta values and their (s,t)-deformations.

Subpackages by layer: exact index combinatorics (``indices``), the word
algebra with its two products (``words``), scalar rings (``rings``),
regularized values (``regularization``), high-precision numerics
(``numeric``), the deformed symmetric values and relation checkers
(``stadic``), the truncated associator machinery (``associator``), exact
congruence scans mod prime powers (``finite``) and the CLI (``cli``).
"""

from .indices import Index, parse_index
from .numeric import DEFAULT_PREC, mzv, mzv_star, tolerance
from .rings import BiSeries, ZetaPoly
from .words import HARMONIC, SHUFFLE, NcPoly

__version__ = "0.1.0"

__all__ = [
    "Index", "parse_index",
    "DEFAULT_PREC", "mzv", "mzv_star", "tolerance",
    "BiSeries", "ZetaPoly",
    "HARMONIC", "SHUFFLE", "NcPoly",
    "__version__",
]
