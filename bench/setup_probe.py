"""One fresh-process start of a workload, for the ``setup_s`` metric.

Run as ``python3 -m bench.setup_probe --workload NAME`` from the
repository root.  Prints ``ready`` once the workload's first server is
built and warmed up, that is just before its first simulated event;
``bench/run.py`` times the span from before it spawned this process to
that line.  The span covers interpreter start, ``import repro``, pool
creation (pooled workloads), ``SimulatedServer(...)`` and ``.start()``.
"""

from __future__ import annotations

import argparse

import bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    bench.bootstrap()
    import repro.api
    from repro.harness import runner

    from bench import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        jobs = workload.jobs()
        if jobs > 1:
            runner.get_pool(jobs)
        experiment = workload.first_experiment(args.seed, args.smoke)
        repro.api.SimulatedServer(experiment.server).start()
        print("ready", flush=True)
    finally:
        runner.shutdown_pool()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
