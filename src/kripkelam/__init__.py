"""Binder-only lambda terms encoded higher-order, with first-order oracles.

The encoding lives in :mod:`kripkelam.encoding`: closed terms are functions
from algebras to carriers, binder bodies are Kripke functions usable at any
reachable world, and ``lam_alg`` is the weakly initial algebra. Example
algebras (size, printing, de Bruijn conversion) are in
:mod:`kripkelam.algebras`, the first-order ground truth and generators in
:mod:`kripkelam.debruijn`, extensional homomorphism checking in
:mod:`kripkelam.laws`, and the command line in :mod:`kripkelam.cli`. The
package root re-exports the ``__all__`` of the first four.
"""

from .algebras import *
from .debruijn import *
from .encoding import *
from .laws import *

__version__ = "0.1.0"
