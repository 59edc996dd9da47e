"""E10 — scaling: wall-clock cost and ratio growth versus the polylog bounds.

Two questions a downstream user asks before adopting the library:

* how does the measured competitive ratio *grow* with the instance size (it
  should track the polylog bound, not a polynomial), and
* how long does a run take as the instance grows (the implementation should be
  near-linear in the total path length of the request sequence).

The experiment sweeps instance sizes, measures both, and emits an ASCII series
table (the "figure") alongside the usual rows.

Each size is one single-trial :class:`~repro.api.spec.RunSpec`; the online
wall-clock (compilation + arrival streaming, excluding the offline solve)
comes back on the row's ``extra["online_seconds"]``.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.ascii_plot import ascii_series_table
from repro.api import FixedSeedAlgorithmFactory, Runner, RunSpec
from repro.core.bounds import randomized_admission_bound, set_cover_randomized_bound
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.utils.rng import as_generator, stable_seed
from repro.workloads import overloaded_edge_adversary, random_setcover_instance

EXPERIMENT_ID = "E10"
TITLE = "Scaling of measured ratios and wall-clock time"
VALIDATES = "Growth-rate shape of Theorems 3, 4 and the Section 4 reduction"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("randomized",)
USES_SETCOVER = ("reduction",)

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


def _admission_sizes(config: ExperimentConfig):
    if config.quick:
        return [16, 32, 64]
    return [16, 32, 64, 128, 256, 512]


def _setcover_sizes(config: ExperimentConfig):
    if config.quick:
        return [(24, 12), (48, 16)]
    return [(24, 12), (48, 16), (96, 24), (192, 32), (384, 48)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the scaling sweep; LP comparators keep large sizes tractable."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    runner = Runner()

    admission_sizes = _admission_sizes(config)
    ratios = []
    bounds = []
    runtimes = []
    for m in admission_sizes:
        c = 4
        rng = as_generator(stable_seed(config.seed, m, "e10-admission"))
        instance = overloaded_edge_adversary(
            num_edges=m, capacity=c, num_hot_edges=max(2, m // 8), overload_factor=3.0, random_state=rng
        )
        spec = RunSpec(
            instance=instance,
            algorithm=FixedSeedAlgorithmFactory(
                "randomized",
                config.engine,
                stable_seed(config.seed, m, "algo"),
                (("weighted", False),),
            ),
            backend=config.backend,
            trials=1,
            offline="lp",
            label=f"E10 admission m={m}",
        )
        [row] = runner.run(spec)
        elapsed = float(row.extra["online_seconds"])
        bound = randomized_admission_bound(m, c, weighted=False).value
        ratios.append(row.ratio)
        bounds.append(bound)
        runtimes.append(elapsed)
        result.rows.append(
            {
                "problem": "admission",
                "size": m,
                "requests": instance.num_requests,
                "ratio": row.ratio,
                "bound": bound,
                "ratio/bound": row.ratio / bound,
                "runtime_s": elapsed,
            }
        )
    result.metadata["admission_series"] = ascii_series_table(
        admission_sizes,
        {"ratio": ratios, "log m * log c": bounds, "runtime_s": runtimes},
        x_name="m",
        title="Admission control: measured ratio vs bound vs runtime",
    )

    sc_ratios = []
    sc_bounds = []
    sc_sizes = _setcover_sizes(config)
    for n, m in sc_sizes:
        instance = random_setcover_instance(
            num_elements=n,
            num_sets=m,
            num_arrivals=2 * n,
            membership_probability=min(0.5, 4.0 / m + 0.1),
            random_state=stable_seed(config.seed, n, m, "e10-sc"),
        )
        spec = RunSpec(
            problem="setcover",
            instance=instance,
            algorithm=FixedSeedAlgorithmFactory(
                "reduction",
                config.engine,
                stable_seed(config.seed, n, m, "sc-algo"),
                problem="setcover",
            ),
            backend=config.backend,
            trials=1,
            offline="lp",
            label=f"E10 setcover n={n} m={m}",
        )
        [row] = runner.run(spec)
        bound = set_cover_randomized_bound(m, n).value
        sc_ratios.append(row.ratio)
        sc_bounds.append(bound)
        result.rows.append(
            {
                "problem": "setcover",
                "size": n,
                "requests": instance.num_arrivals,
                "ratio": row.ratio,
                "bound": bound,
                "ratio/bound": row.ratio / bound,
                "runtime_s": float(row.extra["online_seconds"]),
            }
        )
    result.metadata["setcover_series"] = ascii_series_table(
        [n for n, _ in sc_sizes],
        {"ratio": sc_ratios, "log m * log n": sc_bounds},
        x_name="n",
        title="Set cover via reduction: measured ratio vs bound",
    )
    result.notes.append("Ratios are measured against LP lower bounds here, so they are upper bounds on the true ratios.")
    return result


register(EXPERIMENT_ID, run)
