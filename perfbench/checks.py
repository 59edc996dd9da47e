"""Output checks shared by the workloads.  Each returns ``(name, ok, detail)``."""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence, Set, Tuple

Check = Tuple[str, bool, str]


def feasibility(instance, accepted_ids: Iterable[int]) -> Check:
    """The accepted set fits every capacity (``AdmissionInstance.check_feasible``)."""
    report = instance.check_feasible(accepted_ids)
    return ("accepted_set_feasible", report.feasible, f"violations {list(report.violations[:3])}")


def accepted_from_log(lines: Sequence[str]) -> Set[int]:
    """Ids still accepted at the end of an integral decision log."""
    accepted: Set[int] = set()
    for line in lines:
        entry = json.loads(line)
        if entry["event"] == "accept":
            accepted.add(entry["id"])
        elif entry["event"] == "preempt":
            accepted.discard(entry["id"])
    return accepted


def rejected_from_log(lines: Sequence[str]) -> List[int]:
    """Ids rejected on arrival or preempted later, in log order."""
    return [
        entry["id"]
        for entry in map(json.loads, lines)
        if entry["event"] in ("reject", "preempt")
    ]


def in_process_log(instance, seed: int, batch: int = 64) -> List[str]:
    """The decision log of an in-process ``randomized`` session over the trace order.

    Built the way ``repro serve`` builds its session; lines encoded as the
    server's ``--log`` writes them.
    """
    from repro.engine.streaming import StreamingSession

    session = StreamingSession(
        instance.capacities, algorithm="randomized", backend="numpy", seed=seed
    )
    session.submit_stream(iter(instance.requests), batch_size=batch)
    return [json.dumps(entry, sort_keys=True) for entry in session.decision_log()]


def same_log(expected: Sequence[str], actual: Sequence[str]) -> Check:
    """The server's ``--log`` equals the in-process log line for line."""
    mismatch = next(
        (i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
        None if len(expected) == len(actual) else min(len(expected), len(actual)),
    )
    detail = f"{len(actual)} lines" if mismatch is None else (
        f"first difference at line {mismatch}: expected "
        f"{expected[mismatch] if mismatch < len(expected) else '<end>'!r}, got "
        f"{actual[mismatch] if mismatch < len(actual) else '<end>'!r}"
    )
    return ("server_log_equals_in_process", mismatch is None, detail)
