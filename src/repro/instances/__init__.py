"""Problem-instance data model.

This subpackage defines the objects the rest of the library operates on:

* :class:`~repro.instances.request.Request` and
  :class:`~repro.instances.request.RequestSequence` — online admission-control
  requests (a set of edges plus a rejection cost).
* :class:`~repro.instances.admission.AdmissionInstance` — edge capacities plus
  a request sequence.
* :class:`~repro.instances.setcover.SetSystem` and
  :class:`~repro.instances.setcover.SetCoverInstance` — online set cover with
  repetitions.
* :mod:`~repro.instances.compiled` — array-native (interned + CSR) instance
  views shared across algorithms, trials and workers.
* :mod:`~repro.instances.canonical` — hand-made instances with known optima.
* :mod:`~repro.instances.serialize` — JSON round-tripping and the JSONL
  trace format (record/replay of request streams).
"""

from repro.instances.admission import AdmissionInstance, FeasibilityReport
from repro.instances.compiled import (
    CompiledInstance,
    EdgeInterning,
    compile_instance,
    compile_sequence,
    intern_edges,
)
from repro.instances.request import Decision, DecisionKind, Request, RequestSequence
from repro.instances.setcover import CoverAssignment, SetCoverInstance, SetSystem
from repro.instances import canonical, serialize

__all__ = [
    "AdmissionInstance",
    "CompiledInstance",
    "compile_instance",
    "compile_sequence",
    "EdgeInterning",
    "intern_edges",
    "FeasibilityReport",
    "Decision",
    "DecisionKind",
    "Request",
    "RequestSequence",
    "CoverAssignment",
    "SetCoverInstance",
    "SetSystem",
    "canonical",
    "serialize",
]
