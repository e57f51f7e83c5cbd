"""Doeblin-type contraction and expansion coefficients of quantum channels.

The package is organised in five layers:

* :mod:`qdoeblin.hermlin` -- dense Hermitian linear algebra primitives,
* :mod:`qdoeblin.channel` -- channels, Choi matrices and standard families,
* :mod:`qdoeblin.sdpcore` -- a small dense interior-point SDP solver,
* :mod:`qdoeblin.doeblin` -- the coefficient SDPs and derived bounds,
* :mod:`qdoeblin.oracles` -- solver-free closed-form reference values.

:mod:`qdoeblin.properties` holds the seeded property laws and check suites,
and :mod:`qdoeblin.cli` exposes the ``qdoeblin`` command line tool.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

_SUBMODULES = (
    "channel", "cli", "doeblin", "hermlin", "oracles", "properties", "sdpcore"
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
