"""Seeded faults, recovery, and their exact replay (docs/resilience.md).

A two-step baroclinic-wave run is hit by a seeded chaos plan: a halo
message dropped, another corrupted, a pooled buffer poisoned and a NaN
flipped into a stencil's output. The state guards roll the step back and
retry it, and the run ends bit-identical to a fault-free one. The plan
records what fired; its replay spec pins exactly those occurrences, so a
second run with the replayed plan injects the same faults and recovers
the same way, counter for counter.

Run:  python examples/resilience.py
"""

import numpy as np

from repro import resilience
from repro.fv3.config import DynamicalCoreConfig
from repro.resilience import GuardConfig, ResilienceConfig, chaos
from repro.resilience.chaos import ChaosPlan
from repro.run import run

CONFIG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
    n_tracers=1,
)
SPEC = "seed=7;halo.drop@40;halo.corrupt@11;pool.poison@3;stencil.nanflip@264"
ROLLBACK = ResilienceConfig(guard=GuardConfig(policy="rollback"),
                            max_retries=4)
FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _same_states(a, b):
    return all(
        np.array_equal(getattr(x, name), getattr(y, name))
        for x, y in zip(a.members[0].states, b.members[0].states)
        for name in FIELDS
    )


def _faulty_run(plan):
    """A run under ``plan``; the plan is cleared whatever happens."""
    resilience.reset()
    chaos.set_plan(plan)
    try:
        return run("baroclinic_wave", CONFIG, steps=2, resilience=ROLLBACK)
    finally:
        chaos.clear_plan()


def main() -> None:
    clean = run("baroclinic_wave", CONFIG, steps=2)

    plan = ChaosPlan.from_spec(SPEC)
    faulty = _faulty_run(plan)
    recovered = resilience.summary()["counters"]
    for fault in plan.trace():
        print(f"fault: {fault['site']} occurrence {fault['occurrence']} "
              f"in step {fault['step']}")
    print("recovery:", ", ".join(f"{name} {value}" for name, value
                                 in sorted(recovered.items()) if value))
    print("bit-identical to the fault-free run:",
          _same_states(clean, faulty))

    replay = ChaosPlan.from_spec(plan.replay_spec())
    again = _faulty_run(replay)
    print(f"replayed with REPRO_CHAOS={plan.replay_spec()!r}: same faults "
          f"{replay.counts() == plan.counts()}, same recovery "
          f"{resilience.summary()['counters'] == recovered}, same states "
          f"{_same_states(faulty, again)}")


if __name__ == "__main__":
    main()
