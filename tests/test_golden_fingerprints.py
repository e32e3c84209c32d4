"""Golden determinism digests pinned across commits.

Every other determinism test compares two runs of the *same* checkout
(serial vs pool, run vs re-run).  This file pins the
:func:`~repro.analysis.determinism.fingerprint_digest` of a fixed set of
small seeded runs as literal hex strings, so a refactor that claims
"byte-identical behaviour" is checked against the code it replaced, not
only against itself.  A digest here changes only when the simulated
behaviour is meant to change; update it in the same commit and say why.

The cases cover each policy of :func:`extended_policies` on a ring-64
burst, the Fig. 10 antagonist co-run under DDIO and IDIO, the
noisy-neighbor tenant pack under the shared and partitioned policies,
one run under a seeded fault plan, every non-bursty traffic kind, a
two-burst train, and the balanced and antagonist-storm tenant mixes.
Ring-256 bursts on a 256 KB MLC pin the LLC geometries (including a
6144-set LLC, whose set index is not a power of two), and a seeded
mixed trace driven straight into a small
:class:`~repro.mem.hierarchy.MemoryHierarchy` pins every transaction
kind against capacity evictions at each level and cache-to-cache
migrations, which no server config mixes.
"""

import hashlib
import random

import pytest

from repro.analysis.determinism import fingerprint_digest
from repro.core.policies import extended_policies, idio, policy_by_name
from repro.faults import standard_plan
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.sim import units
from repro.tenants.scenarios import tenant_experiment, tenant_mix
from tests.memtxn import cpu_access, invalidate, pcie_read, pcie_write, prefetch_fill

#: One ring-64 100 Gbps burst per core under each extended policy.
POLICY_DIGESTS = {
    "ddio": "6896d137fc18bae961609b3f53b64a689e61012943d29ba31a1d829989004748",
    "invalidate": "99da206cd92a72f040d4282729d2b1fad0bcdb88f7e300ddd12a582fb903808a",
    "prefetch": "f515da7553aec70144eb3d419001d950691e04292f66733c6557cc365e978a27",
    "static": "27d3e088a6b79c139260237299ff159c76d0e0f21ae8a97843812aff42c4a1d7",
    "idio": "150dec4f07553e5ff0ee964cc4699782a6c264a9feae58de2e71e88465dcddab",
    "idio-regulated": "7902048156596ca1977f68ed395b89ef42b014522920bc1a6ac01b600d0b19ee",
    "iat": "3cdf169902d827eeab60e6506c39f39fc6a63348efc4827ce97687281952e57f",
    "cachedirector": "c51db0eda3add1c87e7115b78e807ea651001e976b6a532d5802c6bb0421eacf",
    "ioca": "6b3bd2799619f28b7ce529cc35e9648fd3101720ad57ee3882db1d533989467f",
    "static-partition": "9c0d837cf3a3267e9027f4c54161c4670e3d11978548d21954fced681d619fbc",
}

#: The same burst beside the legacy ``antagonist=True`` LLC thrasher.
CORUN_DIGESTS = {
    "ddio": "f4210d08d8568ff0da6f897b0c9be77d0e3010511151404886006780e82deace",
    "idio": "4c357d29a2ad84c8487519ef2eef10cff7049d8404a290f69ec4c76d440cca1c",
}

#: The 2-tenant noisy-neighbor pack (one tenant antagonist) at intensity 1.
TENANT_DIGESTS = {
    "ddio": "b5ab6c13640e00da602a3854acac40ac9bfe8ac545821537e6a0564057a1d98c",
    "static-partition": "87ada8f92c0d49087dbe278c99693a73e38fe5c6a9cf8f7e9a784c697a71770b",
    "ioca": "33a98b6e8d7d32e2b5a93bdbde8e59e780e27b23d0487bb3e24c85086a7ee2a9",
}

#: IDIO on a ring-64 burst under ``standard_plan("all", seed=5)``.
FAULTED_DIGEST = "d38c9d4cfc67aa8193822e11aa7aec0057dcc3936848011162867a7aee35b080"

#: 100 us of each seeded/rate-based kind at 10 Gbps per NF on 2 NF cores
#: with ``traffic_seed=7`` (generator ``i`` draws from seed ``7 + i``).
TRAFFIC_DIGESTS = {
    "steady": "efc81a1ca401a5efc3e2fcf6613bd92f44e9f2f76ea1d6d8ae7fe035d853f9d6",
    "poisson": "3db31d8608f28a4bf360eb48b88ecaeafbe1258a2eda42ec640bd978565455c5",
    "imix": "653c4f7309493afbf6c65e0ba98f429e76b6d3796feb72d81aac0312d0d26e40",
    "heavytail": "29101edc376cf3142c8f0751f18ef225554ce0e311aa21b46cca25596c56d8bd",
    "diurnal": "99107ef0751a640b6db7eedc675bd2e35d5d830740409ad8d6167930ed728367",
}

#: Two ring-64 bursts 50 us apart under DDIO.
MULTI_BURST_DIGEST = "b6a6fba9ba952be7819c9240174d8170250eaa9add839e8884c792f69c65ba99"

#: The steady-only and steady-vs-poisson 2-tenant mixes under DDIO.
TENANT_MIX_DIGESTS = {
    "balanced": "be68b3201bfbbf540a7e8bd77c5ed97ac0b57caa2873133b762f5cfcdbd352fe",
    "antagonist-storm": "1b048b2929497d8e95d6b691ac6291dfdd832c934a23a1ce3260d062f99609df",
}

#: One ring-256 DDIO burst per core with a 256 KB NF MLC, so MLC
#: evictions reach the LLC; keyed by the server override applied.
RING256_DIGESTS = {
    "plain": "5e7d6790bba0939bdab1f5a4330e1674f2ceb52ab991eaa4ec524d27481e9cfa",
    "inclusive": "79069d549485b93af10b420752a766c1aebbd5c2b4389358839903cdaefb4108",
    "cat-1way": "683ff3cdf3fa7025d26da2573b8f1332308f76ba94f5e3ed112f22a3d9c7fe10",
    "llc-4.5mb": "7e89e21d1a60b7751b6d8b5dd0152a4dc1f5884358f298f5ef1a4796b0486c66",
}

RING256_OVERRIDES = {
    "plain": {},
    "inclusive": {"llc_inclusive": True},
    "cat-1way": {"nf_cat_ways": 1},
    "llc-4.5mb": {"llc_bytes": 4608 * 1024},
}

#: A seeded mixed trace on a small two-core hierarchy (first recorded
#: with the reference dict-and-``min()`` LRU on every cache level).
MIXED_TRACE_DIGEST = "2766c02bf67d6ff2c6c9b079d20e113b03a506d67e5e392bd00d8cc1e90f4d8b"


def _burst(ring_size: int = 64, **server_kwargs) -> Experiment:
    return Experiment(
        name="golden",
        server=ServerConfig(ring_size=ring_size, **server_kwargs),
        burst_rate_gbps=100.0,
        traffic="bursty",
    )


def _digest(experiment: Experiment) -> str:
    return fingerprint_digest(run_experiment(experiment).summary())


def test_every_extended_policy_is_pinned():
    assert sorted(POLICY_DIGESTS) == sorted(extended_policies())


@pytest.mark.parametrize("name", sorted(POLICY_DIGESTS))
def test_policy_burst(name):
    experiment = _burst().with_policy(policy_by_name(name))
    assert _digest(experiment) == POLICY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CORUN_DIGESTS))
def test_antagonist_corun(name):
    experiment = _burst(antagonist=True).with_policy(policy_by_name(name))
    assert _digest(experiment) == CORUN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TENANT_DIGESTS))
def test_noisy_neighbor_tenants(name):
    experiment = tenant_experiment(
        tenant_mix("noisy-neighbor", tenants=2, intensity=1.0),
        policy_by_name(name),
        name=f"golden-{name}",
        duration_us=100.0,
    )
    assert _digest(experiment) == TENANT_DIGESTS[name]


def test_faulted_run():
    experiment = _burst(fault_plan=standard_plan("all", seed=5)).with_policy(idio())
    assert _digest(experiment) == FAULTED_DIGEST


@pytest.mark.parametrize("kind", sorted(TRAFFIC_DIGESTS))
def test_traffic_kind(kind):
    experiment = Experiment(
        name="golden",
        server=ServerConfig(ring_size=64, num_nf_cores=2),
        traffic=kind,
        traffic_seed=7,
        steady_rate_gbps_per_nf=10.0,
        steady_duration=units.microseconds(100),
        diurnal_period=units.microseconds(50),
    )
    assert _digest(experiment) == TRAFFIC_DIGESTS[kind]


def test_multi_burst():
    experiment = Experiment(
        name="golden",
        server=ServerConfig(ring_size=64),
        burst_rate_gbps=100.0,
        traffic="bursty",
        num_bursts=2,
        burst_period=units.microseconds(50),
    )
    assert _digest(experiment) == MULTI_BURST_DIGEST


@pytest.mark.parametrize("mix", sorted(TENANT_MIX_DIGESTS))
def test_tenant_mix(mix):
    experiment = tenant_experiment(
        tenant_mix(mix, tenants=2, intensity=1.0),
        policy_by_name("ddio"),
        name=f"golden-{mix}",
        duration_us=100.0,
    )
    assert _digest(experiment) == TENANT_MIX_DIGESTS[mix]


@pytest.mark.parametrize("name", sorted(RING256_DIGESTS))
def test_ring256_burst(name):
    experiment = _burst(
        ring_size=256, nf_mlc_bytes=256 * 1024, **RING256_OVERRIDES[name]
    )
    assert _digest(experiment) == RING256_DIGESTS[name]


def _line_state(line):
    return None if line is None else (line.dirty, line.origin, line.owner)


def _mixed_trace_digest() -> str:
    """Digest of every access outcome plus the final per-line state.

    Two cores share a 192-line pool that overflows their 2 KB L1s and
    8 KB MLCs and a 12-set LLC, so the trace runs capacity evictions at
    every level and c2c migrations between the two MLCs.
    """
    h = MemoryHierarchy(
        HierarchyConfig(
            num_cores=2,
            l1=CacheConfig("l1d", 2 * 1024, 2, 2),
            mlc=CacheConfig("mlc", 8 * 1024, 4, 12),
            llc=CacheConfig("llc", 12 * 12 * LINE_SIZE, 12, 24),
        )
    )
    rng = random.Random(2022)
    pool = [0x40000 + i * LINE_SIZE for i in range(192)]
    outcomes = []
    for now in range(0, 6000 * 10, 10):
        op = rng.random()
        core = rng.randrange(2)
        addr = rng.choice(pool) + rng.randrange(LINE_SIZE)
        if op < 0.30:
            result = cpu_access(h, core, addr, False, now)
            outcomes.append((result.latency, result.level))
        elif op < 0.50:
            result = cpu_access(h, core, addr, True, now)
            outcomes.append((result.latency, result.level))
        elif op < 0.68:
            placement = "dram" if rng.random() < 0.2 else "llc"
            outcomes.append(pcie_write(h, addr, now, placement))
        elif op < 0.78:
            outcomes.append(pcie_read(h, addr, now))
        elif op < 0.90:
            outcomes.append(prefetch_fill(h, core, addr, now))
        else:
            invalidate(h, core, addr, now, rng.choice(("private", "all")))
            outcomes.append(None)
    state = []
    for addr in pool:
        state.append((
            h.where(addr),
            sorted(h.llc.directory.owners(addr)),
            _line_state(h.llc.peek(addr)),
            [_line_state(h.mlc[c].peek(addr)) for c in range(2)],
        ))
    payload = repr((outcomes, sorted(h.stats.counters.snapshot().items()), state))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_mixed_trace():
    assert _mixed_trace_digest() == MIXED_TRACE_DIGEST
