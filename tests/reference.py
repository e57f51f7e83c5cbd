"""Reference routines the tests compare the library against.

``real_embed`` is the textbook embedding of Hermitian matrices into real
symmetric ones.  No solve goes through it: ``sdpcore`` solves a complex
Hermitian block of multiplicity 2 natively, and the tests check that it has
the iterates of this embedding.
"""

from __future__ import annotations

import numpy as np

from qdoeblin.hermlin import HERM_TOL, require_hermitian


def real_embed(h: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Embed a Hermitian matrix as a real symmetric one of twice the side.

    ``H = A + iB`` maps to ``[[A, -B], [B, A]]``.  The embedding doubles
    every eigenvalue's multiplicity, so it preserves positive
    semidefiniteness in both directions and linear combinations commute
    with it.  A stack of shape ``(k, n, n)`` is embedded matrix by matrix
    into shape ``(k, 2n, 2n)``, with one Hermiticity check for the stack.
    """
    h = require_hermitian(h, tol, "real_embed input")
    a = h.real
    b = h.imag
    top = np.concatenate([a, -b], axis=-1)
    bot = np.concatenate([b, a], axis=-1)
    return np.concatenate([top, bot], axis=-2)
