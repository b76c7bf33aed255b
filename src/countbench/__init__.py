"""Verification workbench for the set-size distinction problem.

Given a hidden set of size either k or k' = (1+eps)k inside {1..n}, the
package evaluates the spectral-norm certificates that lower-bound the
query cost of telling the two sizes apart, cross-checks every closed
form against explicit matrices, and simulates the matching algorithms
with exact query accounting.
"""

__version__ = "0.1.0"

from . import adversary, bruteforce, johnson, linalg, simulate  # noqa: F401
from .adversary import ProblemInstance  # noqa: F401
