"""Unit tests for the five placement policy configurations."""

import pytest

from repro.core.policies import (
    PREFETCH_DYNAMIC,
    PREFETCH_STATIC,
    IdioSteering,
    all_policies,
    ddio,
    idio,
    invalidate_only,
    policy_by_name,
    prefetch_only,
    static_idio,
)


class TestPolicyTable:
    """The Fig. 9 configuration matrix."""

    def test_ddio_is_all_off(self):
        p = ddio()
        assert not p.self_invalidate
        assert p.steering is None

    def test_invalidate_only(self):
        p = invalidate_only()
        assert p.self_invalidate
        assert p.steering is None  # software-only mechanism

    def test_prefetch_only(self):
        p = prefetch_only()
        assert not p.self_invalidate
        assert p.steering == IdioSteering(PREFETCH_DYNAMIC, direct_dram=False)
        assert p.steering.needs_classifier

    def test_static(self):
        p = static_idio()
        assert p.self_invalidate
        assert p.steering == IdioSteering(PREFETCH_STATIC)

    def test_idio_enables_everything(self):
        p = idio()
        assert p.self_invalidate
        assert p.steering == IdioSteering(PREFETCH_DYNAMIC, direct_dram=True)

    def test_all_policies_complete(self):
        assert set(all_policies()) == {"ddio", "invalidate", "prefetch", "static", "idio"}

    def test_policy_by_name(self):
        assert policy_by_name("idio").name == "idio"
        with pytest.raises(ValueError):
            policy_by_name("bogus")

    def test_invalid_prefetch_mode(self):
        with pytest.raises(ValueError, match="unknown prefetch mode 'sometimes'"):
            IdioSteering(prefetch="sometimes")


class TestSweepHelpers:
    def test_with_threshold(self):
        p = idio().with_threshold(25.0)
        assert p.idio.mlc_threshold_mtps == 25.0
        assert p.name == "idio"
        assert idio().idio.mlc_threshold_mtps == 50.0  # original unchanged

    def test_with_burst_threshold(self):
        p = idio().with_burst_threshold(5.0)
        assert p.idio.rx_burst_threshold_gbps == 5.0
