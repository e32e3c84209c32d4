"""Golden outputs of the two matrix commands: ``faults`` and ``tenants``.

Each command prints a table, may fold a sweep fingerprint, and writes
``--out`` and ``--trace-out`` files.  This file pins those bytes as
SHA-256 digests, so a refactor of the sweep code is checked against the
output of the code it replaced.  The digests change only when a table,
a fold or a trace is meant to change; update them in the same commit
and say why.

Two runs cover four outputs.  A run's stdout is compared without the
lines that name its output files, so one run pins both its table and
its files:

* ``faults --quick --jobs 2 --out F``: stdout and the failure manifest;
* ``tenants --policies ddio,ioca --intensities 0.25,2 --duration-us 100
  --jobs 2 --checked --trace-out T``: stdout and the per-tenant lanes.

The stripped stdout equals that of the same command without the file
flags, and the tenants stdout and trace equal those written without
``--checked``.
"""

import hashlib

import pytest

from repro.cli import main

#: argv, then the SHA-256 of stripped stdout and of the written file.
CASES = {
    "faults": (
        ["faults", "--quick", "--jobs", "2", "--out"],
        "5326a14e9ececca0f9565cff5d4092ebde1a44962333cf54207b5d8c7d4623c1",
        "58ea620258af6b66da288e3b6c93196fedb7a114100b2a50e7a2ae9297e9f28c",
    ),
    "tenants": (
        ["tenants", "--policies", "ddio,ioca", "--intensities", "0.25,2",
         "--duration-us", "100", "--jobs", "2", "--checked", "--trace-out"],
        "935a3a0fac8b8c50ee3410bf1723414c0d17622adb809a472556d66cbd800b76",
        "e491b36d1db140606df5493b5c7a433596643b38f2f550c9107e78d5099dc94a",
    ),
}

def _pinned(line: str) -> bool:
    """False for lines naming the written file."""
    return not line.startswith(("wrote ", "(failure manifest written"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_sweep_output_is_pinned(command, tmp_path, capsys):
    argv, stdout_digest, file_digest = CASES[command]
    path = tmp_path / "out.json"
    code = main(argv + [str(path)])
    out = capsys.readouterr().out
    assert code == 0, out
    kept = [line for line in out.splitlines() if _pinned(line)]
    assert _sha(("\n".join(kept) + "\n").encode()) == stdout_digest, out
    assert _sha(path.read_bytes()) == file_digest
