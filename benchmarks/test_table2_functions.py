"""Table II: behavioral verification of the evaluation functions.

TouchDrop touches every byte and drops; L2Fwd forwards on the Ethernet
header; LLCAntagonist randomly accesses a variable-size buffer.  Each is
exercised end-to-end and its memory-access signature checked.
"""

from repro.core.policies import ddio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.report import format_table
from repro.harness.server import ServerConfig
from repro.sim import units


def run_function(app, **server_kwargs):
    exp = Experiment(
        name=f"table2-{app}",
        server=ServerConfig(policy=ddio(), app=app, ring_size=64, **server_kwargs),
        traffic="bursty",
        burst_rate_gbps=50.0,
    )
    return run_experiment(exp)


def test_table2_functions(benchmark):
    def run_all():
        return {
            "touchdrop": run_function("touchdrop"),
            "l2fwd": run_function("l2fwd", packet_bytes=1024),
            "antagonist": run_function("touchdrop", antagonist=True),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    td = results["touchdrop"]
    l2 = results["l2fwd"]
    an = results["antagonist"]

    rows = [
        ["TouchDrop", "touch all data, drop", f"{td.completed} pkts, {td.server.nics[0].total_tx} TX"],
        ["L2Fwd", "forward on Ethernet header", f"{l2.completed} pkts, {l2.server.nics[0].total_tx} TX"],
        ["LLCAntagonist", "random buffer accesses", f"{an.antagonist_accesses} accesses"],
    ]
    print()
    print(format_table(["function", "Table II behavior", "measured"], rows,
                       title="Table II — evaluation functions"))

    # TouchDrop drops (no TX), touches everything (per-packet reads = lines).
    assert td.server.nics[0].total_tx == 0
    td_reads = td.server.cores[0].stats.mem_accesses
    assert td_reads >= td.completed / 2 * 24  # per-core share of line touches
    # L2Fwd transmits every packet.
    assert l2.server.nics[0].total_tx == l2.completed
    # The antagonist made progress while the NFs ran.
    assert an.antagonist_accesses > 1000
