#!/usr/bin/env python
"""tenants-smoke: the multi-tenant isolation gate behind ``make tenants-smoke``.

Runs the 2-tenant noisy-neighbor pack under DDIO, IDIO, and IOCA with
checked mode on (way-quota invariant armed), then asserts the property
the tenant tier exists to deliver: at the highest aggressor intensity
the victim's p99 must *improve under partitioning* — IOCA's per-tenant
way masks must beat the shared DDIO partition.  Exits nonzero (with the
full matrix) on any cell failure, invariant violation, or if the
isolation win ever disappears.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.policies import ddio, idio, ioca  # noqa: E402
from repro.tenants.sweep import run_tenants, victim_p99  # noqa: E402

INTENSITIES = (0.25, 2.0)


def main() -> int:
    result = run_tenants(
        policies=[ddio(), idio(), ioca()],
        mix="noisy-neighbor",
        tenants=2,
        intensities=INTENSITIES,
        duration_us=150.0,
        jobs=2,
        checked=True,
    )
    print(result.render())
    print(f"sweep fingerprint: {result.fingerprint}")
    if result.exit_code != 0:
        print(f"tenants-smoke: FAIL (sweep exit code {result.exit_code})")
        return result.exit_code
    top = max(INTENSITIES)
    ddio_p99 = victim_p99(result, "ddio", top)
    ioca_p99 = victim_p99(result, "ioca", top)
    if not (0 < ioca_p99 < ddio_p99):
        print(
            "tenants-smoke: FAIL (partitioning did not improve the victim: "
            f"ioca p99 {ioca_p99:.1f} us vs ddio p99 {ddio_p99:.1f} us "
            f"at intensity {top:g})"
        )
        return 1
    print(
        "tenants-smoke: OK (victim p99 under partitioning "
        f"{ioca_p99:.1f} us vs {ddio_p99:.1f} us shared, intensity {top:g})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
