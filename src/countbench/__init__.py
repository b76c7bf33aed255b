"""Verification workbench for the set-size distinction problem.

Given a hidden set of size either k or k' = (1+eps)k inside {1..n}, the
package evaluates the spectral-norm certificates that lower-bound the
query cost of telling the two sizes apart, cross-checks every closed
form against explicit matrices, and simulates the matching algorithms
with exact query accounting.

Importing the package loads the closed side only: `adversary`, `linalg`
and `simulate`, all that `bounds` and `simulate` read.  `johnson` and
`bruteforce`, which build the explicit matrices, load when imported by
name (`from countbench import bruteforce`), as `verify` does.
"""

__version__ = "0.1.0"

from . import adversary, linalg, simulate  # noqa: F401
from .adversary import ProblemInstance  # noqa: F401
