"""Pluggable kernel backends for the fast fetch-engine tier.

``REPRO_BACKEND`` selects how the vectorized engine core executes its
kernels.  Every backend implements the same narrow contract
(:class:`repro.core.backends.base.KernelBackend`) behind the existing
``FetchInput`` -> ``FetchStats`` boundary and is locked bit-exact —
stats *and* full predictor state — against the scalar reference loops
by the parity suite and the ``repro.qa`` differential oracle's backend
axis.

Registered tiers, each degrading to the next when unavailable:

* ``numpy`` (default) — the pure-numpy kernels of
  :mod:`repro.core.fast`, always available.
* ``compiled`` — exec-generated kernels specialized per (geometry,
  predictor-config) cell with all shape constants folded in, persisted
  under ``<cache>/compiled/kernels/``; falls back to ``numpy`` for
  shapes it does not specialize (set-associative BTB targets).
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from ... import envvars

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .base import KernelBackend

#: Environment variable selecting the kernel backend.
BACKEND_ENV = "REPRO_BACKEND"

BACKEND_NUMPY = "numpy"
BACKEND_COMPILED = "compiled"

#: Accepted values, in display order.
BACKEND_MODES: Tuple[str, ...] = (BACKEND_NUMPY, BACKEND_COMPILED)

#: Degradation order per requested mode: the first available backend
#: along the chain runs.  ``numpy`` is always available.
FALLBACK_CHAINS: Dict[str, Tuple[str, ...]] = {
    BACKEND_NUMPY: (BACKEND_NUMPY,),
    BACKEND_COMPILED: (BACKEND_COMPILED, BACKEND_NUMPY),
}

_instances: Dict[str, "KernelBackend"] = {}


def backend_mode() -> str:
    """Selected backend from ``REPRO_BACKEND``.

    Unset or empty defaults to ``numpy``.  Anything else outside
    :data:`BACKEND_MODES` raises a :class:`ValueError` naming the
    variable (the CLI validates eagerly and exits 2).
    """
    raw = envvars.read(BACKEND_ENV)
    if raw is None or not raw.strip():
        return BACKEND_NUMPY
    text = raw.strip().lower()
    if text in BACKEND_MODES:
        return text
    raise ValueError(
        f"{BACKEND_ENV} must be one of {'/'.join(BACKEND_MODES)}, "
        f"got {raw!r}")


def get_backend(name: str) -> "KernelBackend":
    """The (cached) backend instance registered under ``name``."""
    backend = _instances.get(name)
    if backend is None:
        if name == BACKEND_NUMPY:
            from .numpy_backend import NumpyBackend
            backend = NumpyBackend()
        elif name == BACKEND_COMPILED:
            from .compiled import CompiledKernelBackend
            backend = CompiledKernelBackend()
        else:
            raise ValueError(f"unknown backend: {name!r}")
        _instances[name] = backend
    return backend


def resolve_backend(name: str) -> "KernelBackend":
    """First *available* backend along ``name``'s fallback chain."""
    for candidate in FALLBACK_CHAINS[name]:
        backend = get_backend(candidate)
        if backend.available():
            return backend
    return get_backend(BACKEND_NUMPY)


def active_backend() -> "KernelBackend":
    """The backend selected by ``REPRO_BACKEND``, after degradation."""
    return resolve_backend(backend_mode())


def available_backends() -> Tuple[str, ...]:
    """Modes whose backend can run in this interpreter, display order."""
    return tuple(mode for mode in BACKEND_MODES
                 if get_backend(mode).available())
