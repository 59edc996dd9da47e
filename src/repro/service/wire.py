"""The admission service's versioned JSON wire schema.

One frame per line (newline-delimited JSON), every frame a JSON object
carrying the schema version.  The versioning rule mirrors the checkpoint
format (:data:`~repro.instances.serialize.CHECKPOINT_SCHEMA`): additive,
optional fields may ride on the same version; any change that alters the
meaning of an existing field bumps :data:`SERVICE_SCHEMA`, and both sides
reject versions they do not know — a mismatched client fails loudly on its
first frame instead of silently mis-parsing admission decisions.

Frame shapes (``v`` and ``op`` are present in every frame; requests use the
canonical codec :func:`~repro.instances.serialize.request_to_state` /
:func:`~repro.instances.serialize.request_from_state`, the same one traces
use, so a request round-trips the socket byte-identically):

=================  =========  ====================================================
op                 direction  other fields
=================  =========  ====================================================
``welcome``        S -> C     ``service``, ``name``, ``processed``, ``decisions``
``submit``         C -> S     ``seq``, ``request``
``submit_batch``   C -> S     ``seq``, ``requests``
``stats``          C -> S     ``seq``
``drain``          C -> S     ``seq``
``result``         S -> C     ``seq``, ``entry`` (submit) / ``entries`` (batch;
                              preemption entries included), ``processed``
``stats``          S -> C     ``seq``, ``summary``, ``health``, ``processed``,
                              ``decisions``
``drained``        S -> C     ``seq``, ``processed``, ``decisions``,
                              ``checkpointed``
``error``          S -> C     ``seq`` (``null`` for undecodable frames), ``error``
=================  =========  ====================================================

Replies carry the ``seq`` of the frame they answer; within one connection
they arrive in submission order (the front door is a single FIFO dispatcher).
``entries`` attribute preemption entries to the frame being consumed at that
point of the decision stream — positional attribution; the server's ``--log``
is the authoritative, totally-ordered record.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Union

__all__ = [
    "SERVICE_SCHEMA",
    "SERVICE_KIND",
    "CLIENT_OPS",
    "SERVER_OPS",
    "FRAME_FIELDS",
    "MAX_FRAME_BYTES",
    "WireFormatError",
    "encode_frame",
    "decode_frame",
]

#: Current wire schema version; bumped on incompatible frame changes.
SERVICE_SCHEMA = 1

#: The ``service`` field of the welcome frame — lets a client confirm what it
#: connected to before submitting anything.
SERVICE_KIND = "repro-admission-service"

#: Frame ops a client may send.
CLIENT_OPS = ("submit", "submit_batch", "stats", "drain")

#: Frame ops a server may send.
SERVER_OPS = ("welcome", "result", "stats", "drained", "error")

#: Machine-readable frame schema: op -> every field that may accompany it
#: (beyond the universal ``v``/``op``).  This is the table the docstring
#: above renders for humans; ``repro lint`` (RPR005) fingerprints it and
#: checks every frame literal in ``repro/service/`` against it, so adding a
#: field here — and bumping :data:`SERVICE_SCHEMA` when the change is not
#: purely additive — is the one move that unlocks a wire-shape change.
#: Keep it a literal dict of string tuples; the linter reads it from the AST.
FRAME_FIELDS = {
    "welcome": ("service", "name", "processed", "decisions"),
    "submit": ("seq", "request"),
    "submit_batch": ("seq", "requests"),
    "stats": ("seq", "summary", "health", "processed", "decisions"),
    "drain": ("seq",),
    "result": ("seq", "entry", "entries", "processed"),
    "drained": ("seq", "processed", "decisions", "checkpointed"),
    "error": ("seq", "error"),
}

# The direction tuples and the field table must agree on the op vocabulary.
assert set(CLIENT_OPS) | set(SERVER_OPS) == set(FRAME_FIELDS)

#: Upper bound on one frame's encoded size (also the asyncio stream-reader
#: limit).  Generous enough for multi-thousand-request batches, small enough
#: that a garbage byte stream cannot balloon server memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class WireFormatError(ValueError):
    """A wire frame is malformed (bad JSON, wrong schema version, missing op)."""


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Encode one frame as a newline-terminated JSON line (schema stamped).

    ``sort_keys`` keeps the byte stream deterministic, the same property the
    trace and checkpoint formats rely on.
    """
    payload = {"v": SERVICE_SCHEMA, **frame}
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode_frame(data: Union[bytes, str]) -> Dict[str, Any]:
    """Decode and envelope-validate one wire frame.

    Raises :class:`WireFormatError` on invalid JSON, non-object frames, an
    unknown schema version, or a missing ``op`` — the strict-rejection
    contract shared with :func:`~repro.instances.serialize.validate_checkpoint`.
    """
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as err:
        raise WireFormatError(f"invalid JSON frame: {err}") from None
    if not isinstance(obj, dict):
        raise WireFormatError(f"frame must be a JSON object, got {type(obj).__name__}")
    if obj.get("v") != SERVICE_SCHEMA:
        raise WireFormatError(
            f"unsupported service schema {obj.get('v')!r} "
            f"(this build speaks schema {SERVICE_SCHEMA})"
        )
    if not isinstance(obj.get("op"), str):
        raise WireFormatError(f"frame is missing its 'op' field: {obj!r}")
    return obj
