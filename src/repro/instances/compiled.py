"""Compiled (array-native) views of admission-control instances.

The online algorithms spend most of their time inside the multiplicative
weight mechanism, but before PR 2 every arrival still crossed a per-edge
Python loop: edge ids (arbitrary hashables, typically ``(u, v)`` tuples) were
hashed into dicts once per path edge, per arrival, per algorithm, per trial.

:class:`CompiledInstance` removes that tax once and for all.  Compiling an
instance

* **interns** every edge id to a dense integer (``edge_order`` /
  ``edge_index``) in the instance's capacity order, so backends and compiled
  callers agree on the numbering without translation;
* stores the request paths as a **CSR-style pair** (``indptr`` / ``indices``)
  of NumPy arrays — request ``i`` occupies the edge indices
  ``indices[indptr[i]:indptr[i+1]]`` — plus flat ``costs`` / ``request_ids``
  arrays and a per-request ``tags`` tuple;
* keeps a reference to the original :class:`~repro.instances.request.
  RequestSequence` so callers that need the rich ``Request`` objects (the
  acceptance bookkeeping, analysis code) can still get them in O(1).

The interning itself is an :class:`EdgeInterning` built by
:func:`intern_edges`.  It is O(m) to build but independent of the requests,
so a long-lived caller (a streaming session) builds it once and compiles
every micro-batch against it: :func:`compile_sequence` given an interning
builds only the CSR arrays, O(batch path length), and every batch shares the
one interning object — which also lets the algorithms cache their edge
translation per interning instead of per batch.

A compiled instance is immutable and read-only, so one compilation is safely
shared across algorithms, trials, and parallel workers.
:func:`compile_instance` memoizes per :class:`~repro.instances.admission.
AdmissionInstance`, which is what "compile once per instance and reuse"
means in practice: the engine, the trial runner and the experiments all hit
the same cached object.

The per-request edge *order* inside ``indices`` is each request's canonical
``ordered_edges`` — the same order the uncompiled path hands to
:meth:`WeightBackend.register` — so compiled and uncompiled runs perform
bit-identical floating-point operations, independent of the process's hash
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.instances.admission import AdmissionInstance
from repro.instances.request import EdgeId, Request, RequestSequence

__all__ = [
    "EdgeInterning",
    "intern_edges",
    "CompiledInstance",
    "compile_sequence",
    "compile_instance",
]

#: Attribute used to memoize the compilation on the instance object itself.
_CACHE_ATTR = "_compiled_instance_cache"


@dataclass(frozen=True, eq=False)
class EdgeInterning:
    """An edge set interned to dense indices, in capacity-mapping order.

    Identity semantics (``eq=False``), like :class:`CompiledInstance`: the
    algorithms cache their edge translation on the interning *object*, so
    every compilation against one interning shares that cache.

    Attributes
    ----------
    edge_order:
        Dense edge index -> original edge id.
    edge_index:
        Original edge id -> dense edge index (inverse of ``edge_order``).
    capacities:
        Read-only ``int64[m]`` edge capacities, indexed by dense edge index.
    """

    edge_order: Tuple[EdgeId, ...]
    edge_index: Dict[EdgeId, int]
    capacities: np.ndarray

    @property
    def num_edges(self) -> int:
        """``m`` — number of interned edges."""
        return len(self.edge_order)

    def capacities_by_id(self) -> Dict[EdgeId, int]:
        """Capacity mapping keyed by the original edge ids (interning order)."""
        return dict(zip(self.edge_order, self.capacities.tolist()))


def intern_edges(capacities: Mapping[EdgeId, int]) -> EdgeInterning:
    """Intern a capacity mapping's edges in its iteration order.

    That order matches every :class:`~repro.engine.backends.WeightBackend`
    built from the same mapping, so indices compiled against the interning
    feed the backends directly, with no per-arrival translation.
    """
    edge_order: Tuple[EdgeId, ...] = tuple(capacities)
    edge_index: Dict[EdgeId, int] = {edge: k for k, edge in enumerate(edge_order)}
    caps = np.fromiter(
        (int(capacities[e]) for e in edge_order), dtype=np.int64, count=len(edge_order)
    )
    caps.setflags(write=False)
    return EdgeInterning(edge_order=edge_order, edge_index=edge_index, capacities=caps)


@dataclass(frozen=True, eq=False)
class CompiledInstance:
    """An admission instance lowered to contiguous arrays.

    Identity semantics (``eq=False``): comparisons and hashing fall back to
    object identity — a generated ``__eq__`` over ndarray fields would raise,
    and the :func:`compile_instance` memoization relies on identity anyway.

    Attributes
    ----------
    interning:
        The :class:`EdgeInterning` the paths index into; ``edge_order``,
        ``edge_index`` and ``capacities`` read through to it.
    indptr / indices:
        CSR-style request paths over dense edge indices: request ``i``
        occupies ``indices[indptr[i]:indptr[i+1]]``.
    costs:
        ``float64[n]`` rejection penalties in arrival order.
    request_ids:
        ``int64[n]`` request ids in arrival order.
    tags:
        Per-arrival tag (``None`` for untagged requests).
    requests:
        The original request sequence (for callers that need ``Request``
        objects — acceptance bookkeeping, decision logs, analysis).
    name:
        Human-readable name, carried over from the source instance.
    """

    interning: EdgeInterning
    indptr: np.ndarray
    indices: np.ndarray
    costs: np.ndarray
    request_ids: np.ndarray
    tags: Tuple[Optional[str], ...]
    requests: RequestSequence
    name: str = "compiled-instance"

    # -- interning accessors -----------------------------------------------------
    @property
    def edge_order(self) -> Tuple[EdgeId, ...]:
        """Dense edge index -> original edge id (the interning table)."""
        return self.interning.edge_order

    @property
    def edge_index(self) -> Dict[EdgeId, int]:
        """Original edge id -> dense edge index (inverse of ``edge_order``)."""
        return self.interning.edge_index

    @property
    def capacities(self) -> np.ndarray:
        """Read-only ``int64[m]`` edge capacities, indexed by dense edge index."""
        return self.interning.capacities

    # -- shape accessors ---------------------------------------------------------
    @property
    def num_requests(self) -> int:
        """Number of arrivals."""
        return int(self.indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """``m`` — number of interned edges."""
        return self.interning.num_edges

    @property
    def max_capacity(self) -> int:
        """``c`` — maximum edge capacity."""
        return int(self.capacities.max()) if self.num_edges else 0

    @property
    def total_path_length(self) -> int:
        """Sum of path lengths over all requests (the size of ``indices``)."""
        return int(self.indices.shape[0])

    def __len__(self) -> int:
        return self.num_requests

    # -- per-request views -------------------------------------------------------
    def edge_indices(self, i: int) -> np.ndarray:
        """Dense edge indices of request ``i``'s path (a zero-copy CSR slice)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def request(self, i: int) -> Request:
        """The original :class:`Request` object of arrival ``i``."""
        return self.requests[i]

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    # -- conversions -------------------------------------------------------------
    def capacities_by_id(self) -> Dict[EdgeId, int]:
        """Capacity mapping keyed by the original edge ids (interning order)."""
        return self.interning.capacities_by_id()

    def describe(self) -> str:
        """One-line description used in logs and reports."""
        return (
            f"{self.name} [compiled]: m={self.num_edges} edges, "
            f"{self.num_requests} requests, total path length {self.total_path_length}"
        )


def compile_sequence(
    requests: RequestSequence,
    capacities: Union[Mapping[EdgeId, int], EdgeInterning],
    *,
    name: str = "compiled-instance",
) -> CompiledInstance:
    """Compile a request sequence against a capacity mapping or an interning.

    A mapping is interned first (:func:`intern_edges`, O(m)); an
    :class:`EdgeInterning` is used as is, so only the CSR arrays are built —
    O(total path length of ``requests``).  Every request is validated before
    anything is returned: an edge outside the interning raises
    :class:`ValueError` and the caller has processed nothing yet.
    """
    if not isinstance(requests, RequestSequence):
        requests = RequestSequence(requests)
    if isinstance(capacities, EdgeInterning):
        interning = capacities
    else:
        interning = intern_edges(capacities)
    edge_index = interning.edge_index

    n = len(requests)
    indptr = np.zeros(n + 1, dtype=np.intp)
    flat: List[int] = []
    costs = np.zeros(n, dtype=np.float64)
    request_ids = np.zeros(n, dtype=np.int64)
    tags: List[Optional[str]] = []
    for i, request in enumerate(requests):
        # Canonical (repr-sorted) edge order — the same order the uncompiled
        # registration path uses, so the per-edge processing order (and
        # therefore every float operation) is identical between the two
        # pipelines *and* independent of the process's hash seed.
        for edge in request.ordered_edges:
            try:
                flat.append(edge_index[edge])
            except KeyError:
                raise ValueError(
                    f"request {request.request_id} uses edge {edge!r} "
                    "that has no capacity entry"
                ) from None
        indptr[i + 1] = len(flat)
        costs[i] = request.cost
        request_ids[i] = request.request_id
        tags.append(request.tag)
    indices = np.asarray(flat, dtype=np.intp)
    return CompiledInstance(
        interning=interning,
        indptr=indptr,
        indices=indices,
        costs=costs,
        request_ids=request_ids,
        tags=tuple(tags),
        requests=requests,
        name=name,
    )


def compile_instance(instance: AdmissionInstance) -> CompiledInstance:
    """Compile an :class:`AdmissionInstance`, memoizing on the instance.

    The compiled view is immutable, so the cache is safe to share across
    algorithms and trials; repeated calls for the same instance are O(1).
    """
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    compiled = compile_sequence(instance.requests, instance.capacities, name=instance.name)
    try:
        setattr(instance, _CACHE_ATTR, compiled)
    except (AttributeError, TypeError):  # pragma: no cover - exotic instance types
        pass
    return compiled
