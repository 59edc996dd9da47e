"""``ServiceConfig``: the frozen, eagerly-validated admission-service config.

Every ``repro serve`` invocation — trace replay or network front door — and
every embedded service (:class:`~repro.service.server.ServiceThread`, the
loadtest bench) compiles down to one :class:`ServiceConfig`, the same way
every experiment compiles down to a :class:`~repro.api.spec.RunSpec`.  The
contract mirrors ``RunSpec``'s:

* construction validates everything eagerly — a bad config never gets as far
  as opening a socket or forking a worker;
* registry lookups (algorithm / backend) raise the registries'
  :class:`~repro.engine.registry.UnknownKeyError`, whose message lists every
  known key;
* ``workers`` alone means "one shard per worker" — the shards/workers
  normalization happens here once, not in every CLI adapter.

Error messages spell fields the way the CLI does (``--resume requires
--checkpoint``) because the CLI is the dominant constructor; the adapters
print them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple

__all__ = ["ServiceConfig", "ServiceConfigError", "parse_address"]


class ServiceConfigError(ValueError):
    """A :class:`ServiceConfig` is invalid (bad field value or combination)."""


def parse_address(value: str, *, flag: str = "--listen") -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` string; raises :class:`ServiceConfigError`.

    ``flag`` names the offending option in the message (``--listen`` for the
    server, ``--connect`` for the loadtest client).
    """
    host, sep, port_text = str(value).rpartition(":")
    if not sep or not host:
        raise ServiceConfigError(f"{flag} must be HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceConfigError(f"{flag} must be HOST:PORT, got {value!r}") from None
    if not 0 <= port <= 65535:
        raise ServiceConfigError(f"{flag} port must be 0..65535, got {port}")
    return host, port


@dataclass(frozen=True)
class ServiceConfig:
    """One admission-service run, fully described and validated up front.

    ``listen=None`` is trace-replay mode (the classic ``repro serve`` loop);
    ``listen="host:port"`` is the network front door (``port`` 0 binds an
    ephemeral port, printed on startup).  In both modes ``trace`` supplies
    the capacity map; in replay mode it also supplies the arrivals.
    """

    trace: str
    listen: Optional[str] = None
    algorithm: str = "doubling"
    backend: Optional[str] = None
    seed: int = 0
    shards: Optional[int] = None
    workers: int = 1
    batch: int = 64
    batch_wait_ms: float = 2.0
    checkpoint: Optional[str] = None
    checkpoint_every: int = 0
    resume: bool = False
    max_arrivals: Optional[int] = None
    log: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        self._normalize()
        self._validate_flags()
        self._validate_sharding()
        self._validate_registries()

    # -- validation ---------------------------------------------------------------
    def _set(self, field: str, value: Any) -> None:
        object.__setattr__(self, field, value)

    def _normalize(self) -> None:
        self._set("trace", str(self.trace))
        if self.checkpoint is not None:
            self._set("checkpoint", str(self.checkpoint))
        if self.log is not None:
            self._set("log", str(self.log))
        if not isinstance(self.algorithm, str) or not self.algorithm.strip():
            raise ServiceConfigError(f"--algorithm must be a registry key, got {self.algorithm!r}")
        self._set("algorithm", self.algorithm.strip().lower())
        if self.backend is not None:
            self._set("backend", str(self.backend).strip().lower())
        try:
            self._set("seed", int(self.seed))
        except (TypeError, ValueError):
            raise ServiceConfigError(f"--seed must be an integer, got {self.seed!r}") from None
        if self.seed < 0:
            raise ServiceConfigError(f"--seed must be >= 0, got {self.seed}")
        if self.name is None:
            self._set("name", f"serve:{Path(self.trace).stem}")

    def _validate_flags(self) -> None:
        if not Path(self.trace).exists():
            raise ServiceConfigError(f"trace file not found: {self.trace}")
        if self.listen is not None:
            parse_address(self.listen)  # raises with the --listen spelling
        if self.batch < 1:
            raise ServiceConfigError("--batch must be >= 1")
        if self.batch_wait_ms < 0:
            raise ServiceConfigError(f"--batch-wait-ms must be >= 0, got {self.batch_wait_ms}")
        if self.resume and self.checkpoint is None:
            raise ServiceConfigError("--resume requires --checkpoint")
        if self.checkpoint_every < 0:
            raise ServiceConfigError(f"--checkpoint-every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every > 0 and self.checkpoint is None:
            raise ServiceConfigError("--checkpoint-every requires --checkpoint")
        if self.max_arrivals is not None and self.max_arrivals < 0:
            raise ServiceConfigError(f"--max-arrivals must be >= 0, got {self.max_arrivals}")
        if self.max_arrivals is not None and self.listen is not None:
            raise ServiceConfigError(
                "--max-arrivals applies to trace replay; a network service "
                "(--listen) accepts arrivals until SIGTERM"
            )

    def _validate_sharding(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ServiceConfigError("--shards must be >= 1")
        if self.workers < 1:
            raise ServiceConfigError("--workers must be >= 1")
        if self.shards is not None and self.workers > 1 and self.shards != self.workers:
            raise ServiceConfigError(
                f"a worker pool runs one shard per worker; "
                f"got --shards {self.shards} with --workers {self.workers}"
            )

    def _validate_registries(self) -> None:
        # Unknown keys raise the registries' UnknownKeyError, whose message
        # lists every known key — the library-wide lookup contract.
        from repro.engine.registry import WEIGHT_BACKENDS
        from repro.engine.runtime import ensure_builtin_registrations
        from repro.engine.streaming import STREAMING_ALGORITHMS

        ensure_builtin_registrations()
        STREAMING_ALGORITHMS.get(self.algorithm)
        if self.backend is not None:
            WEIGHT_BACKENDS.get(self.backend)

    # -- derived views ------------------------------------------------------------
    @property
    def is_network(self) -> bool:
        """Whether this config runs the asyncio front door (vs trace replay)."""
        return self.listen is not None

    @property
    def address(self) -> Tuple[str, int]:
        """The parsed ``--listen`` (host, port); only valid when :attr:`is_network`."""
        if self.listen is None:
            raise ServiceConfigError("no --listen address on a trace-replay config")
        return parse_address(self.listen)

    @property
    def num_shards(self) -> int:
        """The normalized shard count: ``shards`` or one shard per worker."""
        if self.shards is not None:
            return self.shards
        return self.workers if self.workers > 1 else 1
