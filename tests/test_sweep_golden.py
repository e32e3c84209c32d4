"""Golden outputs of the three matrix commands: ``faults``, ``rack``, ``tenants``.

Each command prints a table, may fold a sweep fingerprint, and writes
``--out`` and ``--trace-out`` files.  This file pins those bytes as
SHA-256 digests, so a refactor of the sweep code is checked against the
output of the code it replaced.  The digests change only when a table,
a fold or a trace is meant to change; update them in the same commit
and say why.

Three runs cover six outputs.  A run's stdout is compared without the
lines that name its output files and without the rack's host wall-time
line, so one run pins both its table and its files:

* ``faults --quick --jobs 2 --out F``: stdout and the failure manifest;
* ``rack --servers 2 --flows 1024 --rate 20 --duration-us 100 --jobs 2
  --checked --trace-out T``: stdout and the per-server lanes;
* ``tenants --policies ddio,ioca --intensities 0.25,2 --duration-us 100
  --jobs 2 --trace-out T``: stdout and the per-tenant lanes.

The stripped stdout equals that of the same command without the file
flags, and the rack trace equals the one written without ``--checked``.
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
    "rack": (
        ["rack", "--servers", "2", "--flows", "1024", "--rate", "20",
         "--duration-us", "100", "--jobs", "2", "--checked", "--trace-out"],
        "668010553324c36acabd885ee91f57a73f1534cfb50d90ccfee8c754e6597b0a",
        "5f8b99331888c8887094af01b602dffffeaa7e87377d61192cb35ce1382be504",
    ),
    "tenants": (
        ["tenants", "--policies", "ddio,ioca", "--intensities", "0.25,2",
         "--duration-us", "100", "--jobs", "2", "--trace-out"],
        "935a3a0fac8b8c50ee3410bf1723414c0d17622adb809a472556d66cbd800b76",
        "e491b36d1db140606df5493b5c7a433596643b38f2f550c9107e78d5099dc94a",
    ),
}

def _pinned(line: str) -> bool:
    """False for lines naming the written file and for host wall time."""
    return not (
        line.startswith(("wrote ", "(failure manifest written"))
        or line.endswith("sim wall time]")
    )


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
