"""Determinism: identical configurations produce identical simulations.

Reproducibility is a core property of the harness — every stochastic
element (the traffic generators, the antagonist's access pattern) is seeded,
and the event kernel breaks timestamp ties FIFO.  Two runs of the same
experiment must agree on every counter and every packet latency.
"""

import hashlib
from array import array

import pytest

from repro.analysis.determinism import _ARRAY_PIECE, _repr_pieces, fingerprint_digest
from repro.core.policies import ddio, idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.sim import units


def run_once(policy, antagonist=False):
    exp = Experiment(
        name="determinism",
        server=ServerConfig(
            policy=policy, app="touchdrop", ring_size=128, antagonist=antagonist
        ),
        traffic="bursty",
        burst_rate_gbps=50.0,
    )
    return run_experiment(exp)


def fingerprint(result):
    return (
        result.server.stats.counters.snapshot(),
        tuple(result.latencies_ns),
        result.burst_processing_time,
        result.rx_packets,
        result.rx_drops,
    )


class TestDeterminism:
    def test_ddio_run_is_reproducible(self):
        assert fingerprint(run_once(ddio())) == fingerprint(run_once(ddio()))

    def test_idio_run_is_reproducible(self):
        assert fingerprint(run_once(idio())) == fingerprint(run_once(idio()))

    def test_corun_with_antagonist_is_reproducible(self):
        """The antagonist uses a seeded RNG: co-runs replay exactly."""
        a = run_once(ddio(), antagonist=True)
        b = run_once(ddio(), antagonist=True)
        assert fingerprint(a) == fingerprint(b)
        assert a.antagonist_access_ns == b.antagonist_access_ns

    def test_different_policies_differ(self):
        """Sanity: the fingerprint is sensitive enough to distinguish
        policies (guards against trivially-equal fingerprints)."""
        assert fingerprint(run_once(ddio())) != fingerprint(run_once(idio()))

    def test_serial_and_warm_pool_agree(self):
        """The serial path and the warm process pool must produce
        byte-identical summaries — the pool may not leak into simulation
        results."""
        import pickle

        from repro.harness.runner import run_experiments, shutdown_pool

        exp = Experiment(
            name="two-way",
            server=ServerConfig(policy=idio(), app="touchdrop", ring_size=128),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        serial = run_experiments([exp, exp], jobs=1)
        pooled = run_experiments([exp, exp], jobs=2)
        shutdown_pool()
        prints = [pickle.dumps(s.fingerprint()) for s in (*serial, *pooled)]
        assert len(set(prints)) == 1


def plain(value):
    """``value`` with every array turned into the tuple of its items."""
    if isinstance(value, array):
        return tuple(value)
    if type(value) is tuple:
        return tuple(plain(item) for item in value)
    return value


def column(n, start=-3):
    return array("q", range(start * 10**11, (start + n) * 10**11, 10**11))


class TestFingerprintDigest:
    """The digest hashes ``repr`` of the fingerprint with arrays as tuples."""

    @pytest.mark.parametrize(
        "value",
        [
            (),
            (column(0),),
            (column(1),),
            ("s", column(2)),
            (column(_ARRAY_PIECE),),
            (column(_ARRAY_PIECE + 1), column(3 * _ARRAY_PIECE - 7)),
            ((("pcie_writes", column(5)), ("dram_reads", column(0))),),
            ("it's", None, 1.5, float("inf"), (2.0, -0.0), ((1,),), (True,)),
        ],
    )
    def test_pieces_spell_the_plain_repr(self, value):
        assert "".join(_repr_pieces(value)) == repr(plain(value))

    def test_summary_digest_hashes_the_plain_repr(self):
        summary = run_once(idio()).summary()
        plain_repr = repr(plain(summary.fingerprint())).encode("utf-8")
        assert fingerprint_digest(summary) == hashlib.sha256(plain_repr).hexdigest()
