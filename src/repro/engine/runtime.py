"""Registry-driven algorithm builds: a string key plus an instance -> an algorithm.

:func:`make_admission_algorithm` and :func:`make_setcover_algorithm` are the
one place that turns a registry key into a running algorithm.  The run-spec
facade, the CLI and the experiments all build through them, so "add an
algorithm" means "register a builder" rather than "edit three call sites".
To run the built algorithm over an instance,
hand it to :func:`repro.core.protocols.run_admission` /
:func:`~repro.core.protocols.run_setcover`.

Builders have the uniform signature::

    build(instance, *, random_state=None, backend=None, **kwargs) -> algorithm

and are registered in :data:`repro.engine.registry.ADMISSION_ALGORITHMS` /
:data:`repro.engine.registry.SETCOVER_ALGORITHMS` by the modules that define
the algorithms.  :func:`make_admission_algorithm` and
:func:`make_setcover_algorithm` lazily import the built-in algorithm and
baseline modules, so resolving a key never depends on what the caller happened
to import first.
"""

from __future__ import annotations

from typing import Union

from repro.engine.config import EngineConfig
from repro.engine.registry import ADMISSION_ALGORITHMS, SETCOVER_ALGORITHMS

__all__ = [
    "make_admission_algorithm",
    "make_setcover_algorithm",
    "ensure_builtin_registrations",
]

_BUILTINS_LOADED = False


def ensure_builtin_registrations() -> None:
    """Import the modules that register the built-in algorithms and backends.

    Registration happens at import time in ``repro.core`` and
    ``repro.baselines``; this makes registry lookups independent of the
    caller's import order.  Idempotent and cheap after the first call.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.baselines  # noqa: F401  (imported for registration side effect)
    import repro.core  # noqa: F401  (imported for registration side effect)
    import repro.engine.backends  # noqa: F401  (imported for registration side effect)

    _BUILTINS_LOADED = True


def make_admission_algorithm(
    key: str,
    instance,
    *,
    random_state=None,
    backend: Union[str, EngineConfig, None] = None,
    **kwargs,
):
    """Build a registered admission-control algorithm for ``instance``."""
    ensure_builtin_registrations()
    build = ADMISSION_ALGORITHMS.get(key)
    return build(instance, random_state=random_state, backend=backend, **kwargs)


def make_setcover_algorithm(
    key: str,
    instance,
    *,
    random_state=None,
    backend: Union[str, EngineConfig, None] = None,
    **kwargs,
):
    """Build a registered set-cover algorithm for ``instance``."""
    ensure_builtin_registrations()
    build = SETCOVER_ALGORITHMS.get(key)
    return build(instance, random_state=random_state, backend=backend, **kwargs)
