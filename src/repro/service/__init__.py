"""The network-facing admission service layer.

Everything between a TCP socket and the streaming engine lives here:

* :mod:`repro.service.wire` — the versioned JSON wire schema
  (:data:`~repro.service.wire.SERVICE_SCHEMA`) both sides of the socket
  speak, with the same strict version checks as the checkpoint format;
* :mod:`repro.service.config` — :class:`~repro.service.config.ServiceConfig`,
  the frozen, eagerly-validated configuration every ``repro serve`` run
  (trace replay or network front door) compiles down to;
* :mod:`repro.service.server` — :class:`~repro.service.server.
  AdmissionService`, the asyncio front door that micro-batches wire requests
  into the existing sessions and shard pools;
* :mod:`repro.service.client` — :class:`~repro.service.client.
  AdmissionClient`, the blocking client SDK whose method surface mirrors
  :class:`~repro.engine.streaming.StreamingSession`;
* :mod:`repro.service.health` — per-shard heartbeat / lag monitoring;
* :mod:`repro.service.loadtest` — the ``repro loadtest`` driver measuring
  sustained req/s and p50/p99 admission latency;
* :mod:`repro.service.runtime` — :class:`~repro.service.runtime.ServingRun`,
  the one serving core (build/resume, log, checkpoint, finish) behind both
  front ends, and the trace-replay loop the CLI adapter delegates to.
"""

from repro.service.client import AdmissionClient, ServiceError
from repro.service.config import ServiceConfig, ServiceConfigError
from repro.service.health import HealthMonitor
from repro.service.loadtest import LoadTestResult, run_loadtest
from repro.service.server import AdmissionService, ServiceThread
from repro.service.wire import SERVICE_SCHEMA, WireFormatError, decode_frame, encode_frame

__all__ = [
    "AdmissionClient",
    "AdmissionService",
    "HealthMonitor",
    "LoadTestResult",
    "SERVICE_SCHEMA",
    "ServiceConfig",
    "ServiceConfigError",
    "ServiceError",
    "ServiceThread",
    "WireFormatError",
    "decode_frame",
    "encode_frame",
    "run_loadtest",
]
