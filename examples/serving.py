"""A forecast service: cached states, cancellation and polling
(docs/serving.md).

The service answers forecast requests from a pool of warm engines. A
request the state cache has seen is a hit; a longer one starts warm
from the cached state; anything else computes from the initial state. A
request still waiting in the queue can be cancelled, and a client can
poll a ticket instead of blocking on it.

Run:  python examples/serving.py
"""

import dataclasses
import time

from repro.fv3.config import DynamicalCoreConfig
from repro.serve import (
    ForecastRequest,
    ForecastService,
    RequestCancelled,
    ServiceConfig,
)

CONFIG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
    n_tracers=1,
)


def main() -> None:
    with ForecastService(ServiceConfig(workers=1)) as service:
        for steps in (2, 2, 3):
            answer = service.forecast("baroclinic_wave", steps,
                                      config=CONFIG)
            print(f"{steps} steps: cache {answer.cache}, "
                  f"{answer.steps_computed} computed")

        # another configuration never joins the running request's
        # batch: it waits in the queue, where it can be cancelled
        running = service.submit(ForecastRequest(
            "baroclinic_wave", 4, config=CONFIG, use_cache=False))
        queued = service.submit(ForecastRequest(
            "baroclinic_wave", 2,
            config=dataclasses.replace(CONFIG, dt_atmos=600.0)))
        print("cancelled while queued:", queued.cancel())
        polls = 0
        while not running.done():
            polls += 1
            time.sleep(0.01)
        print(f"the running request finished after {polls} polls: "
              f"step {running.result().step}")
        try:
            queued.result()
        except RequestCancelled:
            print("the queued request ended cancelled")

        service.cache.clear()
        answer = service.forecast("baroclinic_wave", 2, config=CONFIG)
        print(f"after emptying the cache: cache {answer.cache}")


if __name__ == "__main__":
    main()
