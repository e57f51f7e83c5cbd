"""Reference routines the tests compare the library against.

``real_embed`` is the textbook embedding of Hermitian matrices into real
symmetric ones.  No solve goes through it: ``sdpcore`` solves a complex
Hermitian block of multiplicity 2 natively, and the tests check that it has
the iterates of this embedding.  ``is_psd`` is the eigenvalue test the
embedding's tests check positivity with.
"""

from __future__ import annotations

import numpy as np

from qdoeblin import channel as ch
from qdoeblin.hermlin import HERM_TOL, PSD_TOL, eig_hermitian, require_hermitian


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


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Whether a Hermitian matrix is positive semidefinite within ``tol``."""
    w, _ = eig_hermitian(m, tol=max(tol, HERM_TOL))
    return bool(w[0] >= -tol)


def pinched(chan: ch.QuantumChannel, keep: int = 1, u: np.ndarray | None = None) -> ch.QuantumChannel:
    """The channel ``rho -> U P(N(rho)) U^dag`` for N = ``chan``.

    P is the pinching onto the span of the first ``keep`` basis vectors and
    onto each later basis vector (``keep=1`` dephases fully), and U is
    ``u`` (the identity by default).  P kills the coherences between its
    blocks, so the map of the composite is singular: its ``rev`` and
    ``revT`` have no closed form, its ``revH`` no inverse program, and all
    three reach the link program.
    """
    d = chan.d_out
    u = np.eye(d) if u is None else u
    blocks = [np.arange(d) < keep] + [np.arange(d) == j for j in range(keep, d)]
    kraus = [u @ np.diag(b.astype(float)) @ k for b in blocks for k in chan.kraus]
    return ch.channel_from_kraus(kraus, chan.d_in, d)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """A seeded unitary: the Q factor of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
