"""JSON (de)serialisation of problem instances, plus the JSONL trace format.

Instances are plain data, so round-tripping them through JSON makes it easy to
snapshot interesting adversarial workloads, share them between experiments, and
write golden-file regression tests.  Only JSON-representable edge/element ids
(strings, integers) are supported; tuple ids (used by the network layer) are
encoded as tagged lists.

Two on-disk shapes exist for admission instances:

* one JSON document (:func:`dump_admission` / :func:`load_admission`) — best
  for small golden files;
* a JSONL *trace* (:func:`dump_admission_trace` / :func:`load_admission_trace`)
  — a header line carrying the capacities followed by one line per request in
  arrival order.  Because each arrival is its own line, traces can be recorded
  incrementally, inspected with ``head``/``jq``, and replayed as first-class
  scenarios (:mod:`repro.scenarios.trace`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.instances.admission import AdmissionInstance
from repro.instances.request import Request, RequestSequence
from repro.instances.setcover import SetCoverInstance, SetSystem

__all__ = [
    "admission_to_dict",
    "admission_from_dict",
    "setcover_to_dict",
    "setcover_from_dict",
    "dump_admission",
    "load_admission",
    "dump_setcover",
    "load_setcover",
    "dump_admission_trace",
    "load_admission_trace",
    "stream_admission_trace",
    "AdmissionTraceStream",
    "trace_lines",
    "request_to_state",
    "request_from_state",
    "TraceFormatError",
    "TRACE_KIND",
    "TRACE_SCHEMA",
    "CheckpointFormatError",
    "dump_checkpoint",
    "load_checkpoint",
    "validate_checkpoint",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "encode_edge_id",
    "decode_edge_id",
]

#: The ``kind`` field of a JSONL trace header line.
TRACE_KIND = "admission-trace"

#: Current trace schema version; bumped on incompatible format changes.
TRACE_SCHEMA = 1

#: The ``kind`` field of a streaming-session checkpoint document.
CHECKPOINT_KIND = "streaming-checkpoint"

#: Current checkpoint schema version.  Versioning rule: additive, optional
#: fields may ride on the same version; any change that alters the meaning of
#: an existing field, removes one, or changes the weight-state layout bumps
#: the version, and loaders reject versions they do not know.  Schema 2 has
#: one sharded kind (the shard pool's, without routing-strategy fields).
CHECKPOINT_SCHEMA = 2


class TraceFormatError(ValueError):
    """A JSONL trace is malformed (bad JSON, wrong kind/schema, missing fields).

    Subclasses :class:`ValueError` so callers that guarded against the old
    loose errors keep working; the message always carries the offending line
    number so a broken multi-gigabyte trace is debuggable with ``sed -n``.
    """


class CheckpointFormatError(ValueError):
    """A streaming checkpoint document is malformed or has an unknown version."""

_TUPLE_TAG = "__tuple__"


def _encode_id(value: Any) -> Any:
    """Encode an edge/element id into a JSON-friendly value."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_id(v) for v in value]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialise id of type {type(value).__name__}: {value!r}")


def _decode_id(value: Any) -> Any:
    """Inverse of :func:`_encode_id`."""
    if isinstance(value, dict) and _TUPLE_TAG in value:
        return tuple(_decode_id(v) for v in value[_TUPLE_TAG])
    return value


#: Public aliases used by the checkpoint layer (edge-keyed algorithm state).
encode_edge_id = _encode_id
decode_edge_id = _decode_id


def admission_to_dict(instance: AdmissionInstance) -> Dict[str, Any]:
    """Convert an :class:`AdmissionInstance` into a JSON-serialisable dict."""
    return {
        "kind": "admission",
        "name": instance.name,
        "capacities": [
            {"edge": _encode_id(edge), "capacity": cap}
            for edge, cap in instance.capacities.items()
        ],
        "requests": [
            {
                "id": req.request_id,
                "edges": [_encode_id(e) for e in req.ordered_edges],
                "cost": req.cost,
                "tag": req.tag,
            }
            for req in instance.requests
        ],
    }


def admission_from_dict(data: Dict[str, Any]) -> AdmissionInstance:
    """Rebuild an :class:`AdmissionInstance` from :func:`admission_to_dict` output."""
    if data.get("kind") != "admission":
        raise ValueError(f"not an admission instance payload: kind={data.get('kind')!r}")
    capacities = {_decode_id(item["edge"]): int(item["capacity"]) for item in data["capacities"]}
    requests = RequestSequence(
        Request(
            int(item["id"]),
            frozenset(_decode_id(e) for e in item["edges"]),
            float(item["cost"]),
            tag=item.get("tag"),
        )
        for item in data["requests"]
    )
    return AdmissionInstance(capacities, requests, name=data.get("name"))


def setcover_to_dict(instance: SetCoverInstance) -> Dict[str, Any]:
    """Convert a :class:`SetCoverInstance` into a JSON-serialisable dict."""
    system = instance.system
    return {
        "kind": "setcover",
        "name": instance.name,
        "sets": [
            {
                "id": _encode_id(sid),
                "members": [_encode_id(e) for e in sorted(system.members(sid), key=repr)],
                "cost": system.cost(sid),
            }
            for sid in system.set_ids()
        ],
        "elements": [_encode_id(e) for e in system.elements()],
        "arrivals": [_encode_id(e) for e in instance.arrivals],
    }


def setcover_from_dict(data: Dict[str, Any]) -> SetCoverInstance:
    """Rebuild a :class:`SetCoverInstance` from :func:`setcover_to_dict` output."""
    if data.get("kind") != "setcover":
        raise ValueError(f"not a set-cover instance payload: kind={data.get('kind')!r}")
    sets = {_decode_id(item["id"]): [_decode_id(e) for e in item["members"]] for item in data["sets"]}
    costs = {_decode_id(item["id"]): float(item["cost"]) for item in data["sets"]}
    elements = [_decode_id(e) for e in data["elements"]]
    system = SetSystem(sets, costs, elements=elements)
    arrivals: List[Any] = [_decode_id(e) for e in data["arrivals"]]
    return SetCoverInstance(system, arrivals, name=data.get("name"))


def request_to_state(req: Request) -> Dict[str, Any]:
    """Canonical JSON encoding of one request (a trace line / checkpoint entry).

    ``tag`` is omitted when absent.  Edges are stored repr-sorted — the same
    canonical order :class:`~repro.instances.request.Request` rebuilds its
    frozenset (and ``ordered_edges``) in — so a rebuilt request iterates, and
    is therefore processed, exactly like the original.  This is the *single*
    request codec: JSONL traces and streaming checkpoints both use it.
    """
    line: Dict[str, Any] = {
        "id": req.request_id,
        "edges": [_encode_id(e) for e in req.ordered_edges],
        "cost": req.cost,
    }
    if req.tag is not None:
        line["tag"] = req.tag
    return line


def request_from_state(item: Dict[str, Any]) -> Request:
    """Inverse of :func:`request_to_state`.

    Validates the payload shape itself — a non-object or a request missing
    ``id``/``edges``/``cost`` raises :class:`ValueError` naming what is
    missing — so every consumer of the codec (trace lines, checkpoints, wire
    frames) reports the same diagnosis; the trace reader additionally wraps
    it with the offending line number.
    """
    if not isinstance(item, dict):
        raise ValueError(f"request must be a JSON object, got {type(item).__name__}")
    missing = [key for key in ("id", "edges", "cost") if key not in item]
    if missing:
        raise ValueError(f"request is missing fields {missing}")
    return Request(
        int(item["id"]),
        frozenset(_decode_id(e) for e in item["edges"]),
        float(item["cost"]),
        tag=item.get("tag"),
    )


#: Internal alias: a trace line is exactly the request-state encoding.
_request_to_trace_line = request_to_state


def _request_from_trace_line(item: Dict[str, Any], lineno: int) -> Request:
    """:func:`request_from_state` wrapped with trace-format diagnostics."""
    if not isinstance(item, dict):
        raise TraceFormatError(f"trace line {lineno}: expected a JSON object, got {item!r}")
    if "kind" in item:
        raise TraceFormatError(
            f"trace line {lineno}: duplicate header (kind={item['kind']!r}); "
            "a trace has exactly one header line"
        )
    try:
        return request_from_state(item)
    except (TypeError, ValueError) as err:
        raise TraceFormatError(f"trace line {lineno}: invalid request: {err}") from None


def trace_lines(instance: AdmissionInstance) -> Iterator[str]:
    """Yield the JSONL lines of an admission trace (header first).

    The header carries everything static (kind, schema, name, capacities);
    each following line is one arrival in online order.  ``sort_keys`` plus
    the repr-sorted edge order keep the byte stream deterministic, so
    identical instances produce identical trace files.
    """
    header = {
        "kind": TRACE_KIND,
        "schema": TRACE_SCHEMA,
        "name": instance.name,
        "capacities": [
            {"edge": _encode_id(edge), "capacity": cap}
            for edge, cap in instance.capacities.items()
        ],
    }
    yield json.dumps(header, sort_keys=True)
    for req in instance.requests:
        yield json.dumps(_request_to_trace_line(req), sort_keys=True)


def dump_admission_trace(instance: AdmissionInstance, path: str) -> None:
    """Write an admission instance as a JSONL trace (header + one line per arrival)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_lines(instance):
            fh.write(line + "\n")


class AdmissionTraceStream:
    """A lazily-consumed JSONL admission trace: header now, arrivals on demand.

    The header (capacities, name) is parsed eagerly at construction so the
    static part of the instance is available before any arrival is read;
    iterating the stream then yields one :class:`Request` per trace line
    without ever materialising the whole sequence — this is what lets the
    streaming service replay multi-gigabyte traces at O(1) memory.

    When built from a path the underlying file is closed automatically once
    the iterator is exhausted (or via :meth:`close` / the context manager).
    Blank lines anywhere in the file are ignored; a second header line, bad
    JSON, or a malformed request raise :class:`TraceFormatError` with the
    offending line number.
    """

    def __init__(self, source: Union[str, Path, TextIO, Iterable[str]]) -> None:
        self._fh: Optional[TextIO] = None
        if isinstance(source, (str, Path)):
            # Deliberately not a `with`: the stream owns the handle across lazy
            # iteration and closes it on exhaustion / close() / __exit__.
            self._fh = open(source, "r", encoding="utf-8")  # noqa: SIM115
            lines: Iterable[str] = self._fh
        else:
            lines = source
        self._lines = enumerate(lines, start=1)
        self._consumed = False

        header: Optional[Dict[str, Any]] = None
        header_line = 0
        for lineno, raw in self._lines:
            if not raw.strip():
                continue
            header = self._parse_json(raw, lineno)
            header_line = lineno
            break
        if header is None:
            self.close()
            raise TraceFormatError("empty trace: no header line")
        if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
            self.close()
            kind = header.get("kind") if isinstance(header, dict) else header
            raise TraceFormatError(f"not an admission trace: kind={kind!r}")
        if header.get("schema") != TRACE_SCHEMA:
            self.close()
            raise TraceFormatError(
                f"unsupported trace schema {header.get('schema')!r} "
                f"(this build reads schema {TRACE_SCHEMA})"
            )
        try:
            self.capacities: Dict[Any, int] = {
                _decode_id(item["edge"]): int(item["capacity"])
                for item in header["capacities"]
            }
        except (KeyError, TypeError, ValueError) as err:
            self.close()
            raise TraceFormatError(
                f"trace line {header_line}: malformed capacities in header: {err!r}"
            ) from None
        self.name: Optional[str] = header.get("name")

    @staticmethod
    def _parse_json(raw: str, lineno: int) -> Any:
        try:
            return json.loads(raw)
        except json.JSONDecodeError as err:
            raise TraceFormatError(f"trace line {lineno}: invalid JSON: {err}") from None

    def skip(self, count: int) -> int:
        """Advance past ``count`` request lines without parsing them.

        This is what makes resuming a long serve cheap: the arrivals a
        checkpoint attests to are skipped as raw lines — no JSON decode, no
        :class:`Request` canonicalization — so resume costs O(remaining
        work), not O(trace).  Returns the number of lines actually skipped
        (fewer than ``count`` only if the trace ends early).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        skipped = 0
        while skipped < count:
            entry = next(self._lines, None)
            if entry is None:
                break
            if entry[1].strip():
                skipped += 1
        return skipped

    def __iter__(self) -> Iterator[Request]:
        if self._consumed:
            raise ValueError(
                "trace stream already consumed; reopen it (stream_admission_trace) "
                "to iterate again"
            )
        self._consumed = True
        try:
            for lineno, raw in self._lines:
                if not raw.strip():
                    continue
                yield _request_from_trace_line(self._parse_json(raw, lineno), lineno)
        finally:
            self.close()

    def close(self) -> None:
        """Close the underlying file (no-op for in-memory sources)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "AdmissionTraceStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def stream_admission_trace(
    source: Union[str, Path, TextIO, Iterable[str]],
) -> AdmissionTraceStream:
    """Open a JSONL trace as a lazy :class:`AdmissionTraceStream`."""
    return AdmissionTraceStream(source)


def load_admission_trace(source: Union[str, Path, TextIO, Iterable[str]]) -> AdmissionInstance:
    """Read a JSONL trace back into an :class:`AdmissionInstance`.

    ``source`` may be a path, an open text file, or any iterable of lines.
    Raises :class:`TraceFormatError` (a :class:`ValueError`) on anything
    malformed — wrong ``kind``, an unrecognised ``schema`` version, invalid
    JSON, duplicate headers, or requests with missing fields — so stale or
    truncated trace files fail loudly instead of mis-parsing.  Trailing blank
    lines are tolerated.
    """
    stream = stream_admission_trace(source)
    requests = RequestSequence(stream)
    return AdmissionInstance(stream.capacities, requests, name=stream.name)


def dump_admission(instance: AdmissionInstance, path: str) -> None:
    """Write an admission instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(admission_to_dict(instance), fh, indent=2)


def load_admission(path: str) -> AdmissionInstance:
    """Read an admission instance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return admission_from_dict(json.load(fh))


def dump_setcover(instance: SetCoverInstance, path: str) -> None:
    """Write a set-cover instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(setcover_to_dict(instance), fh, indent=2)


def load_setcover(path: str) -> SetCoverInstance:
    """Read a set-cover instance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return setcover_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Streaming-session checkpoints
# ---------------------------------------------------------------------------


def validate_checkpoint(
    data: Any, *, expected_kind: Optional[str] = CHECKPOINT_KIND
) -> Dict[str, Any]:
    """Validate a checkpoint document's envelope (kind + schema version).

    Returns the document unchanged when valid; raises
    :class:`CheckpointFormatError` on anything else, including schema
    versions this build does not know (forward compatibility is an explicit
    error, never a silent mis-restore).  ``expected_kind=None`` skips the
    kind check — for callers that dispatch on the self-describing ``kind``
    field (the serve ``--resume`` path) rather than asserting one.
    """
    if not isinstance(data, dict):
        raise CheckpointFormatError(f"checkpoint must be a JSON object, got {type(data).__name__}")
    if expected_kind is not None and data.get("kind") != expected_kind:
        raise CheckpointFormatError(
            f"not a {expected_kind} document: kind={data.get('kind')!r}"
        )
    if data.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointFormatError(
            f"unsupported checkpoint schema {data.get('schema')!r} "
            f"(this build reads schema {CHECKPOINT_SCHEMA})"
        )
    return data


def dump_checkpoint(checkpoint: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a checkpoint document as JSON, atomically (write-then-rename).

    The atomic rename means a crash mid-write can never leave a truncated
    checkpoint behind — the previous complete checkpoint survives.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)
    return path


def load_checkpoint(
    path: Union[str, Path], *, expected_kind: Optional[str] = CHECKPOINT_KIND
) -> Dict[str, Any]:
    """Read and envelope-validate a checkpoint document written by :func:`dump_checkpoint`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CheckpointFormatError(f"checkpoint {path} is not valid JSON: {err}") from None
    return validate_checkpoint(data, expected_kind=expected_kind)
