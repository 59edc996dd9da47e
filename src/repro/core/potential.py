"""Potential functions used in the paper's proofs, as runtime-checkable quantities.

The analyses of Lemma 1 (admission control) and Lemma 5 (bicriteria set cover)
rely on potential functions defined relative to an *optimal* solution.  Given
an offline optimum (from :mod:`repro.offline`) these potentials can be
evaluated during or after an online run, turning the proofs' three claimed
properties (initial value, upper bound, growth per augmentation) into
empirical checks — experiment E7 does exactly that.

All potentials are computed in log-space to avoid overflow: the Lemma 1
potential is a product of ``|REQ|`` factors each potentially as small as
``(gc)^{-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.engine.backends import WeightBackend

__all__ = [
    "lemma1_log_potential",
    "lemma1_initial_log_potential",
    "lemma1_log_upper_bound",
    "lemma5_log_potential",
    "lemma5_initial_log_potential",
    "lemma5_log_upper_bound",
    "PotentialCheck",
]


@dataclass(frozen=True)
class PotentialCheck:
    """Outcome of comparing a potential trajectory against the proof's claims."""

    initial_ok: bool
    upper_bound_ok: bool
    growth_ok: bool

    @property
    def all_ok(self) -> bool:
        """True when all three properties hold."""
        return self.initial_ok and self.upper_bound_ok and self.growth_ok


# ---------------------------------------------------------------------------
# Lemma 1 — admission control
# ---------------------------------------------------------------------------


def lemma1_log_potential(
    weights: Mapping[int, float],
    optimal_fractions: Mapping[int, float],
    costs: Mapping[int, float],
    g: float,
    c: int,
) -> float:
    """``log2`` of ``Phi = prod_i max(f_i, 1/(gc))^{f*_i p_i}`` (Lemma 1).

    Parameters
    ----------
    weights:
        Online weights ``f_i`` keyed by request id (normalised costs regime).
    optimal_fractions:
        The optimal fractional solution's rejection fractions ``f*_i``.
    costs:
        The (normalised) costs ``p_i``.
    g, c:
        Normalised cost ratio bound and maximum capacity (the floor of the
        weights inside the potential is ``1/(gc)``).
    """
    floor = 1.0 / (g * max(c, 1))
    log_phi = 0.0
    for rid, f_star in optimal_fractions.items():
        if f_star <= 0:
            continue
        f_i = max(weights.get(rid, 0.0), floor)
        log_phi += f_star * costs[rid] * math.log2(f_i)
    return log_phi


def lemma1_initial_log_potential(alpha: float, g: float, c: int) -> float:
    """``log2`` of the claimed initial value ``(gc)^{-alpha}``."""
    return -alpha * math.log2(g * max(c, 1))


def lemma1_log_upper_bound(alpha: float) -> float:
    """``log2`` of the claimed upper bound ``2^alpha``."""
    return alpha


# ---------------------------------------------------------------------------
# Lemma 5 — bicriteria set cover
# ---------------------------------------------------------------------------


def lemma5_log_potential(set_weights: Mapping, optimal_sets) -> float:
    """``log2`` of ``Psi = prod_{S in OPT} w_S`` (Lemma 5)."""
    log_psi = 0.0
    for set_id in optimal_sets:
        w = set_weights[set_id]
        if w <= 0:
            raise ValueError(f"set {set_id!r} has non-positive weight {w}")
        log_psi += math.log2(w)
    return log_psi


def lemma5_initial_log_potential(alpha: float, m: int) -> float:
    """``log2`` of the claimed initial value ``(2m)^{-alpha}``."""
    return -alpha * math.log2(2.0 * max(m, 1))


def lemma5_log_upper_bound(alpha: float) -> float:
    """``log2`` of the claimed upper bound ``1.5^alpha``."""
    return alpha * math.log2(1.5)


# ---------------------------------------------------------------------------
# Convenience checks
# ---------------------------------------------------------------------------


def check_lemma1(
    state: WeightBackend,
    optimal_fractions: Mapping[int, float],
    costs: Mapping[int, float],
    alpha: float,
    g: float,
    c: int,
    tolerance: float = 1e-6,
) -> PotentialCheck:
    """Verify Lemma 1's potential claims against a finished weight state.

    * the potential of the all-zero weight assignment equals the claimed
      initial value (up to ``tolerance`` in log space);
    * the final potential does not exceed the claimed ``2^alpha`` bound;
    * the number of augmentations is at most ``alpha * log2(2 g c)``
      (equivalently, the potential doubled at most that many times).
    """
    zero_weights = {rid: 0.0 for rid in optimal_fractions}
    initial = lemma1_log_potential(zero_weights, optimal_fractions, costs, g, c)
    claimed_initial = lemma1_initial_log_potential(alpha, g, c)
    # The potential only involves requests OPT rejects a positive fraction of,
    # so the exact initial value is (gc)^{-sum f* p} = (gc)^{-alpha}.
    initial_ok = initial <= claimed_initial + tolerance

    final = lemma1_log_potential(state.weights(), optimal_fractions, costs, g, c)
    upper_bound_ok = final <= lemma1_log_upper_bound(alpha) + tolerance

    growth_ok = state.total_augmentations <= alpha * math.log2(2 * g * max(c, 1)) + tolerance
    return PotentialCheck(initial_ok, upper_bound_ok, growth_ok)
