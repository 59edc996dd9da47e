"""Optional numba-fused restore kernel, registered as the ``"numba"`` backend.

On capacity-saturated traces the numpy backend's restore loop is bound by
per-call ufunc overhead: every augmentation pays a multiply and a sum
reduction (plus a max reduction when a kill is possible) on a small (tens of
elements) array, ~1µs of fixed cost each.  :func:`mwu_edge_restore` fuses the
whole restore — seeding, the multiplicative updates, kill detection and the
covering-sum termination check — into one compiled loop, which is what the
≥100k req/s `scaling_10k` target needs.  It replaces the numpy backend's one
restore kernel, so recording and record-free runs both reach it.

The module is import-safe without numba: the kernel below is plain Python
(and is exercised as such by the test suite), and it is ``njit``-compiled and
the ``"numba"`` backend registered **only** when ``import numba`` succeeds.
Environments without numba simply don't list the backend — mirroring how
``make typecheck`` auto-skips when mypy is absent — and the CI leg that
installs numba runs the full 1e-9 cross-backend equivalence suite against it
like any other backend.

Like the scalar python backend, the kernel accumulates sums sequentially
(numpy reduces pairwise); :data:`~repro.engine.backends.SUM_TOLERANCE`
absorbs the reduction-order difference, which is exactly what the
cross-backend equivalence gate checks.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import SUM_TOLERANCE, NumpyWeightBackend
from repro.engine.registry import WEIGHT_BACKENDS

__all__ = ["mwu_edge_restore", "NumbaWeightBackend", "NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the containerised default
    numba = None
    NUMBA_AVAILABLE = False


def mwu_edge_restore(
    w: np.ndarray,
    cost: np.ndarray,
    alive: np.ndarray,
    cap: int,
    seed: float,
    tol: float,
) -> int:
    """Fused record-free restore of one edge's covering constraint.

    ``w`` / ``cost`` are the gathered weights and (normalised) costs of the
    edge's alive requests; ``alive`` is an all-True bool scratch of the same
    length.  Mutates ``w`` in place and clears ``alive[i]`` for every request
    whose weight reached 1 (the caller owns the kill bookkeeping).  Returns
    the number of augmentations performed.

    The loop mirrors the scalar reference backend step for step: seed zero
    weights once, multiply every alive weight by ``1 + 1/(n_e * cost_i)``,
    kill weights >= 1, stop when the edge is no longer in excess or the alive
    weights cover it.
    """
    n = w.shape[0]
    n_alive = n
    n_e = n_alive - cap
    s = 0.0
    for i in range(n):
        s += w[i]
    if s >= n_e * (1.0 - tol):
        return 0
    for i in range(n):
        if w[i] == 0.0:
            w[i] = seed
    augmentations = 0
    while True:
        for i in range(n):
            if alive[i]:
                nw = w[i] * (1.0 + 1.0 / (n_e * cost[i]))
                w[i] = nw
                if nw >= 1.0:
                    alive[i] = False
                    n_alive -= 1
        augmentations += 1
        n_e = n_alive - cap
        if n_e <= 0:
            break
        s = 0.0
        for i in range(n):
            if alive[i]:
                s += w[i]
        if s >= n_e * (1.0 - tol):
            break
    return augmentations


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed
    _restore_kernel = numba.njit(cache=True, fastmath=False)(mwu_edge_restore)
else:
    _restore_kernel = mwu_edge_restore


class NumbaWeightBackend(NumpyWeightBackend):
    """Numpy-backend storage with the fused compiled restore kernel.

    Only the restore kernel differs.  Recording restores (``record=True``
    runs) run it too: the inherited record path derives the outcome from the
    weights before and after the kernel.
    """

    name = "numba"

    def _restore_edge_norecord(self, eidx: int, cap: int) -> None:
        idx = self._alive_slots(eidx)
        w = self._w[idx]
        cost = self._cost[idx]
        alive = np.ones(idx.shape[0], dtype=np.bool_)
        self.total_augmentations += _restore_kernel(
            w, cost, alive, cap, self.seed_weight, SUM_TOLERANCE
        )
        self._w[idx] = w
        if not alive.all():
            for slot in idx[~alive].tolist():
                self._kill_slot(slot)


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed
    WEIGHT_BACKENDS.register("numba")(NumbaWeightBackend)
