"""E7 — the proofs' potential-function invariants, checked at runtime.

Two families of checks:

* **Lemma 1** (admission control): with ``alpha`` equal to the optimal
  fractional cost, the potential ``prod_i max(f_i, 1/(gc))^{f*_i p_i}`` starts
  at ``(gc)^{-alpha}``, never exceeds ``2^alpha``, and the number of
  augmentations is at most ``alpha log2(2gc)``.
* **Lemma 5 / Lemma 6** (bicriteria set cover): the potential ``Phi`` never
  exceeds ``n^2``, no augmentation increases it, at most ``2 ln n`` sets are
  selected per augmentation, and the number of augmentations respects
  Lemma 5's bound computed from the offline optimum.

The checks need the *live* algorithm object after its run, which is exactly
what the run-spec facade's measurement probes provide: each configuration is
one :class:`~repro.api.spec.RunSpec` whose probe performs the invariant
checks inside the worker and returns booleans on the row's ``extra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.analysis.invariants import check_bicriteria_state, check_fractional_state
from repro.api import Runner, RunSpec
from repro.core.potential import check_lemma1
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.experiments.e1_fractional import OracleAlphaFractional
from repro.experiments.e6_bicriteria import E6Workload
from repro.instances.admission import AdmissionInstance
from repro.instances.setcover import SetCoverInstance
from repro.offline import solve_admission_lp_cached, solve_set_multicover_ilp
from repro.utils.rng import stable_seed
from repro.workloads import single_edge_workload, uniform_costs

EXPERIMENT_ID = "E7"
TITLE = "Potential-function invariants (Lemmas 1, 5 and 6)"
VALIDATES = "Lemma 1, Lemma 5, Lemma 6"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("fractional",)
USES_SETCOVER = ("bicriteria",)

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


@dataclass(frozen=True)
class E7Workload:
    """Picklable congestion workload builder for the Lemma 1 checks."""

    m: int
    c: int

    def __call__(self, rng):
        return single_edge_workload(
            num_edges=self.m,
            num_requests=4 * self.m,
            capacity=self.c,
            concentration=1.1,
            cost_sampler=lambda count, r: uniform_costs(count, 1.0, 3.0, random_state=r),
            random_state=rng,
        )


def lemma1_probe(instance: AdmissionInstance, algorithm: Any) -> Dict[str, Any]:
    """Check Lemma 1's state invariants and potential bounds on a finished run."""
    # Cached: the oracle-alpha factory and the trial comparator already solved
    # this instance's LP in the same worker.
    opt = solve_admission_lp_cached(instance)
    alpha = max(opt.cost, 1e-9)
    report = check_fractional_state(algorithm, optimal_cost=alpha)
    # Potential check needs the optimal fractional solution expressed in
    # the algorithm's normalised cost units.
    normalized_costs = {
        rid: algorithm.weight_state.cost_of(rid) for rid in algorithm.weight_state.weights()
    }
    fractions = {rid: opt.fractions.get(rid, 0.0) for rid in normalized_costs}
    normalized_alpha = sum(fractions[rid] * normalized_costs[rid] for rid in fractions)
    check = check_lemma1(
        algorithm.weight_state,
        fractions,
        normalized_costs,
        alpha=max(normalized_alpha, 1e-9),
        g=algorithm.g,
        c=algorithm.c,
    )
    return {"invariant_ok": bool(report.ok), "potential_ok": bool(check.all_ok)}


@dataclass(frozen=True)
class Lemma56Probe:
    """Check Lemmas 5 and 6 on a finished bicriteria run (needs the ILP OPT)."""

    ilp_time_limit: Optional[float]

    def __call__(self, instance: SetCoverInstance, algorithm: Any) -> Dict[str, Any]:
        opt = solve_set_multicover_ilp(
            instance.system, instance.demands(), time_limit=self.ilp_time_limit
        )
        report = check_bicriteria_state(algorithm, optimal_cost=opt.cost)
        return {
            "invariant_ok": bool(report.ok),
            "potential_fraction": algorithm.max_potential_seen / (max(algorithm.n, 2) ** 2),
        }


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the invariant checks and return one row per configuration."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(4)
    runner = Runner()
    sizes = [(8, 2), (16, 4), (32, 8)] if config.quick else [(8, 2), (16, 4), (32, 8), (64, 8), (128, 16)]

    # -- Lemma 1 on the fractional algorithm -------------------------------------
    for m, c in sizes:
        spec = RunSpec(
            factory=E7Workload(m, c),
            algorithm=OracleAlphaFractional(config.engine),
            backend=config.backend,
            trials=trials,
            jobs=config.engine.effective_jobs,
            seed=stable_seed(config.seed, m, c, "e7-frac"),
            probe=lemma1_probe,
            label=f"E7 lemma1 m={m} c={c}",
        )
        cell = runner.run(spec)
        result.rows.append(
            {
                "check": "lemma1",
                "size": f"m={m},c={c}",
                "trials": trials,
                "invariants_ok": sum(int(row.extra["invariant_ok"]) for row in cell),
                "potential_ok": sum(int(row.extra["potential_ok"]) for row in cell),
            }
        )

    # -- Lemmas 5 and 6 on the bicriteria algorithm --------------------------------
    sc_sizes = [(16, 8), (32, 16)] if config.quick else [(16, 8), (32, 16), (64, 24), (128, 32)]
    for n, m in sc_sizes:
        spec = RunSpec(
            problem="setcover",
            factory=E6Workload(n, m),
            algorithm="bicriteria",
            algorithm_params={"eps": 0.2},
            backend=config.backend,
            trials=trials,
            jobs=config.engine.effective_jobs,
            seed=stable_seed(config.seed, n, m, "e7-bic"),
            offline="lp",  # the probe does its own exact solve; keep the row's comparator cheap
            probe=Lemma56Probe(config.ilp_time_limit),
            label=f"E7 lemma5+6 n={n} m={m}",
        )
        cell = runner.run(spec)
        result.rows.append(
            {
                "check": "lemma5+6",
                "size": f"n={n},m={m}",
                "trials": trials,
                "invariants_ok": sum(int(row.extra["invariant_ok"]) for row in cell),
                "max_potential/n^2": max(row.extra["potential_fraction"] for row in cell),
            }
        )
    result.notes.append("invariants_ok must equal trials in every row; max_potential/n^2 must stay <= 1.")
    return result


register(EXPERIMENT_ID, run)
