"""Set-up probe: one fresh interpreter, from its start to the first scenario.

Usage, from the repository root::

    python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

Imports ``repro.api``, starts one job of WORKLOAD and stops it at the
moment the first scenario starts running (for the sweep: the moment the
first cell is handed to the cell scheduler, before any worker starts).
Prints ``time.monotonic()`` at that moment; the caller subtracts its own
``time.monotonic()`` taken just before launching this interpreter.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, List


class _Started(Exception):
    """Raised by the hook to stop the job once it has started."""


def main(argv: List[str]) -> int:
    name, seed, scratch = argv[1], int(argv[2]), argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import repro.api  # noqa: F401  (the import being measured)
    from repro.service.scheduler import CellScheduler
    from repro.sim.kernel import Simulator
    from tracer import Patches
    from workloads import WORKLOADS, run_job

    workload = WORKLOADS[name]
    stamps: List[float] = []

    def stop(fn: Callable[..., Any]) -> Callable[..., Any]:
        def hooked(*args: Any, **kwargs: Any) -> Any:
            stamps.append(time.monotonic())
            raise _Started

        return hooked

    patches = Patches()
    if workload.sweep_jobs:
        patches.wrap(CellScheduler, "submit", stop)
    else:
        patches.wrap(Simulator, "run", stop)
    try:
        run_job(workload, seed, scratch=scratch)
    except _Started:
        pass
    finally:
        patches.restore()
    if not stamps:
        print("setup probe: the workload never started a scenario", file=sys.stderr)
        return 1
    print(repr(stamps[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
