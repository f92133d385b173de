"""The paper's Sec. IX test case: a perturbed zonal flow on the cubed
sphere, integrated by the full dynamical core across 6 simulated ranks.

The whole experiment is now one facade call: the scenario registry
supplies the reference-checked initial conditions and configuration,
``repro.run.run`` wires the ranks and steps the model, and this script
only renders the result — per-step diagnostics (max wind, max vertical
velocity, global mass drift) and a crude ASCII rendering of the
mid-level temperature anomaly of tile 0, the paper's "fast visual
verification of the results".

With tracing on (``REPRO_TRACE=1`` or ``--trace``) the run ends with the
``repro.obs`` span tree: dyncore → acoustics → per-stencil calls and halo
exchanges, with call counts, estimated bytes moved and achieved GB/s
against the machine-model roofline; this script's own rendering is a
span of its own. Under ``REPRO_CHAOS`` it ends with the faults that
fired and the spec that replays exactly them.

Run:  python examples/baroclinic_wave.py [steps] [--trace]
"""

import sys

import numpy as np

from repro import obs
from repro.resilience import chaos
from repro.run import run
from repro.scenarios import get_scenario


def ascii_field(field2d: np.ndarray, width: int = 48) -> str:
    """Render a 2D field as ASCII shades."""
    shades = " .:-=+*#%@"
    f = field2d
    lo, hi = float(f.min()), float(f.max())
    scale = (len(shades) - 1) / (hi - lo + 1e-30)
    rows = []
    step = max(1, f.shape[0] // width)
    for j in range(f.shape[1] - 1, -1, -2 * step):
        row = "".join(
            shades[int((f[i, j] - lo) * scale)]
            for i in range(0, f.shape[0], step)
        )
        rows.append(row)
    return "\n".join(rows)


def main(steps: int = 4) -> None:
    scenario = get_scenario("baroclinic_wave")
    config = scenario.default_config()
    print(f"grid: c{config.npx}, {config.npz} levels, "
          f"{config.total_ranks} ranks, dt={config.dt_atmos}s "
          f"(~{config.grid_spacing_km():.0f} km spacing)")

    result = run(scenario, config, steps=steps)
    member = result.members[0]

    for entry in member.history:
        print(
            f"step {entry['step']:>2}  t={entry['time']:7.0f}s  "
            f"max|V|={entry['max_wind']:6.2f} m/s  "
            f"max|w|={entry['max_w']:7.4f} m/s  "
            f"mass drift={entry['mass_drift']:+.2e}"
        )
    checks = "passed" if member.ok else "; ".join(member.check_violations)
    print(f"reference checks: {checks}")

    engine = result.engine
    h = engine.h
    k_mid = config.npz // 2
    with obs.span("example.render"):
        pt = member.states[0].pt[h:-h, h:-h, k_mid]
        anomaly = pt - pt.mean()
        print(f"\ntile 0 temperature anomaly at level {k_mid} "
              f"(range {anomaly.min():+.2f}..{anomaly.max():+.2f} K):")
        print(ascii_field(anomaly))

    comm = engine.halo.comm
    sizes = comm.message_sizes()
    print(f"\ncommunication: {len(sizes)} messages routed, "
          f"{sum(sizes) / 1e6:.1f} MB total")
    by_rank = comm.bytes_by_rank()
    rank = max(by_rank, key=by_rank.get)
    print(f"largest sender: rank {rank}, {by_rank[rank] / 1e6:.1f} MB")

    if chaos.active():
        plan = chaos.get_plan()
        for fault in plan.trace():
            print(f"chaos: {fault['site']} occurrence {fault['occurrence']} "
                  f"fired in step {fault['step']}")
        consults = {site: plan.consults(site) for site in plan.rules}
        print(f"chaos: fired {plan.counts()} of {consults} consults; "
              f"replay with REPRO_CHAOS={plan.replay_spec()!r}")

    if obs.enabled():
        print()
        print(obs.report())
        obs.disable()


if __name__ == "__main__":
    argv = [a for a in sys.argv[1:] if a != "--trace"]
    if len(argv) != len(sys.argv) - 1:
        obs.enable()
    main(int(argv[0]) if argv else 4)
