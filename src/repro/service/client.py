"""``AdmissionClient``: the blocking Python SDK for the admission service.

The method surface deliberately mirrors
:class:`~repro.engine.streaming.StreamingSession` — ``submit`` returns one
normalized decision entry, ``submit_batch`` returns the batch's entries
(preemptions included) — so in-process and over-the-wire callers are
interchangeable::

    from repro.service import AdmissionClient

    with AdmissionClient("127.0.0.1", 7411) as client:
        entry = client.submit(request)          # {"id": ..., "event": ...}
        entries = client.submit_batch(batch)    # arrival-ordered entries
        client.stats()                          # summary + per-shard health
        client.drain()                          # durability barrier
    # close() on exit; connect() is implicit on first use

The client is strictly call-reply over one connection: every frame carries a
``seq`` and the next reply must echo it, so a desynchronized stream fails
loudly (:class:`ServiceError`) instead of mis-attributing decisions.  The
wire schema (one JSON object per line, versioned) is documented in
:mod:`repro.service.wire`.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterable, List, Optional

from repro.instances.request import Request
from repro.instances.serialize import request_to_state
from repro.service.wire import (
    MAX_FRAME_BYTES,
    SERVICE_KIND,
    WireFormatError,
    decode_frame,
    encode_frame,
)

__all__ = ["AdmissionClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The service replied with an error frame, or the connection broke."""


class AdmissionClient:
    """A blocking admission-service client over one TCP connection."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._seq = 0
        self._last_processed = 0
        #: The service's welcome frame (name, processed/decisions counters).
        self.welcome: Optional[Dict[str, Any]] = None
        #: Every entry of the last submit/submit_batch reply (preemptions
        #: included) — the over-the-wire analogue of the session log tail.
        self.last_entries: List[Dict[str, Any]] = []

    # -- connection ---------------------------------------------------------------
    def connect(self) -> "AdmissionClient":
        """Connect and validate the welcome frame (idempotent)."""
        if self._sock is not None:
            return self
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock = sock
        self._fh = sock.makefile("rwb")
        try:
            welcome = self._read_frame()
            if welcome.get("op") != "welcome" or welcome.get("service") != SERVICE_KIND:
                raise ServiceError(
                    f"not an admission service at {self.host}:{self.port}: {welcome!r}"
                )
        except BaseException:
            self.close()
            raise
        self.welcome = welcome
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - already-broken pipe
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def __enter__(self) -> "AdmissionClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the session-mirroring surface --------------------------------------------
    def submit(self, request: Request) -> Optional[Dict[str, Any]]:
        """Submit one arrival; returns its normalized decision entry.

        Mirrors :meth:`~repro.engine.streaming.StreamingSession.submit`:
        preemptions the arrival triggered are decisions about *other*
        requests and ride on :attr:`last_entries`, not the return value.
        """
        reply = self._call({"op": "submit", "request": request_to_state(request)})
        self.last_entries = list(reply.get("entries") or [])
        return reply.get("entry")

    def submit_batch(self, requests: Iterable[Request]) -> List[Dict[str, Any]]:
        """Submit a micro-batch; returns its entries, preemptions included.

        Mirrors :meth:`~repro.engine.streaming.StreamingSession.submit_batch`.
        """
        payload = [request_to_state(r) for r in requests]
        reply = self._call({"op": "submit_batch", "requests": payload})
        self.last_entries = list(reply.get("entries") or [])
        return self.last_entries

    def stats(self) -> Dict[str, Any]:
        """Service summary plus the per-shard health snapshot."""
        return self._call({"op": "stats"})

    def drain(self) -> Dict[str, Any]:
        """Durability barrier: everything submitted before it is flushed
        through the engine, fsynced to the log, and checkpointed (when the
        service has a checkpoint configured)."""
        return self._call({"op": "drain"})

    @property
    def processed(self) -> int:
        """The service's arrival counter from the most recent reply."""
        return int(self._last_processed)

    # -- wire plumbing ------------------------------------------------------------
    def _call(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self.connect()
        assert self._fh is not None
        self._seq += 1
        frame = {**frame, "seq": self._seq}
        try:
            self._fh.write(encode_frame(frame))
            self._fh.flush()
        except (BrokenPipeError, OSError) as err:
            raise ServiceError(f"connection to {self.host}:{self.port} broke: {err}") from None
        reply = self._read_frame()
        if reply.get("op") == "error":
            raise ServiceError(str(reply.get("error")))
        if reply.get("seq") != self._seq:
            raise ServiceError(
                f"desynchronized reply: sent seq {self._seq}, got {reply.get('seq')!r} "
                f"(op {reply.get('op')!r})"
            )
        if "processed" in reply:
            self._last_processed = int(reply["processed"])
        return reply

    def _read_frame(self) -> Dict[str, Any]:
        assert self._fh is not None
        try:
            line = self._fh.readline(MAX_FRAME_BYTES)
        except (OSError, socket.timeout) as err:
            raise ServiceError(f"read from {self.host}:{self.port} failed: {err}") from None
        if not line:
            raise ServiceError(
                f"connection to {self.host}:{self.port} closed by the service"
            )
        try:
            return decode_frame(line)
        except WireFormatError as err:
            raise ServiceError(f"malformed frame from the service: {err}") from None
