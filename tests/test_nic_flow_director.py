"""Unit tests for Flow Director (EP exact-match rules)."""

import pytest

from repro.net.flow import make_flow
from repro.nic.flow_director import FlowDirector


class TestEPMode:
    def test_installed_rule_steers(self):
        fd = FlowDirector()
        flow = make_flow(0)
        fd.install_rule(flow, 3)
        assert fd.lookup(flow) == 3

    def test_unknown_flow_uses_default(self):
        fd = FlowDirector(default_core=7)
        assert fd.lookup(make_flow(0)) == 7

    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError):
            FlowDirector().install_rule(make_flow(0), -1)
