"""Streaming admission service: incremental arrivals, checkpoints, sharding.

This example shows the serving layer end to end:

1. open a long-lived :class:`StreamingSession` and feed it arrivals
   incrementally — single requests and micro-batches through the compiled
   fast path — the way a serving system sees traffic;
2. snapshot the session mid-stream to a versioned JSON checkpoint, "crash",
   restore from the checkpoint, and verify the resumed decision log is
   identical to an uninterrupted run;
3. partition a namespaced workload across independent per-shard sessions
   with a :class:`ProcessShardPool`, each shard with its own derived seed
   and its own checkpoint — here in-process; ``start_method=None`` runs the
   same shards in worker processes with the same decisions.

The same loop is available from the shell (with ``--resume`` across real
process boundaries):

    python -m repro serve --trace day1.jsonl --algorithm doubling \
        --checkpoint state.json --checkpoint-every 500 --log decisions.jsonl

Run with:  python examples/streaming_service.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.engine.shards import ProcessShardPool
from repro.engine.streaming import StreamingSession
from repro.workloads.admission_traffic import adversarial_mix_workload, bursty_workload


def main() -> None:
    # 1. A long-lived session over an unbounded stream.  Capacities are known
    #    up front (the paper's model); arrivals are not.
    instance = bursty_workload(num_edges=24, num_requests=300, capacity=4, random_state=11)
    requests = list(instance.requests)
    session = StreamingSession(
        instance.capacities, algorithm="doubling", backend="numpy", seed=5
    )
    first = session.submit(requests[0])  # one at a time ...
    session.submit_batch(requests[1:150])  # ... or micro-batched (compiled path)
    print(f"First decision: {first}")
    print(f"Mid-stream summary: {json.dumps(session.summary(), sort_keys=True)}\n")

    # 2. Checkpoint, "crash", restore, continue.  The checkpoint is plain
    #    versioned JSON: weights, admitted sets, RNG state, interning tables.
    checkpoint_path = Path(tempfile.gettempdir()) / "streaming_demo_checkpoint.json"
    session.save(checkpoint_path)
    del session  # the process "crashes" here

    resumed = StreamingSession.load(checkpoint_path)
    resumed.submit_batch(requests[150:])

    uninterrupted = StreamingSession(
        instance.capacities, algorithm="doubling", backend="numpy", seed=5
    )
    uninterrupted.submit_stream(iter(requests))
    same = resumed.decision_log() == uninterrupted.decision_log()
    print("Checkpoint at arrival 150 -> restore -> stream the rest.")
    print(f"Resumed decision log identical to an uninterrupted run: {same}\n")

    # 3. Shard a namespaced workload across independent sessions.  Edges like
    #    "b0:e3" namespace by prefix; every namespace maps deterministically
    #    to one shard, and each shard gets its own derived seed.
    mix = adversarial_mix_workload(num_edges=8, capacity=2, random_state=3)
    with ProcessShardPool(
        mix.capacities, 3, algorithm="randomized", seed=7, start_method="inline"
    ) as pool:
        pool.submit_batch(list(mix.requests))
        summary = pool.summary()
    print(f"Sharded {mix.num_requests} arrivals over {len(summary['shards'])} live shards:")
    for shard, line in sorted(summary["shards"].items()):
        print(
            f"  shard {shard}: {line['processed']} arrivals, "
            f"rejection cost {line['rejection_cost']:.1f}"
        )
    print(
        "\nEach shard is an independent session with its own checkpoint, so "
        "capacity scales by adding shards — no shared state, no coordination."
    )

    # 4. The same serving path is one knob on the run-spec facade: a spec
    #    with mode="streaming" routes every trial through StreamingSession
    #    micro-batches, and the numbers match the batch/compiled modes
    #    exactly (pinned by tests/test_api_equivalence.py).
    from repro.api import Runner, RunSpec

    streamed = Runner().run(
        RunSpec(instance=instance, algorithm="doubling", backend="numpy",
                mode="streaming", trials=1, seed=5)
    )
    print(
        f"\nFacade streaming run: ratio {streamed.ratios()[0]:.3f} "
        f"(identical to mode='compiled' by construction)"
    )


if __name__ == "__main__":
    main()
