"""CLI validate command (with stubbed verdicts — full runs take tens of seconds)."""

from repro.cli import main
from repro.harness import claims


def make_verdicts(all_pass: bool):
    first, second = claims.suite("validate")[:2]
    return [claims.Verdict(first, True, "y"), claims.Verdict(second, all_pass, "y")]


class TestValidateCommand:
    def test_exit_zero_when_all_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(
            claims, "validate", lambda quick=False, jobs=1: make_verdicts(True)
        )
        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "2/2 claims reproduced" in out

    def test_exit_nonzero_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            claims, "validate", lambda quick=False, jobs=1: make_verdicts(False)
        )
        assert main(["validate"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_quick_flag_forwarded(self, monkeypatch):
        seen = {}

        def fake(quick=False, jobs=1):
            seen["quick"] = quick
            seen["jobs"] = jobs
            return make_verdicts(True)

        monkeypatch.setattr(claims, "validate", fake)
        main(["validate", "--quick"])
        assert seen["quick"] is True
        main(["validate"])
        assert seen["quick"] is False

    def test_jobs_flag_forwarded(self, monkeypatch):
        seen = {}

        def fake(quick=False, jobs=1):
            seen["jobs"] = jobs
            return make_verdicts(True)

        monkeypatch.setattr(claims, "validate", fake)
        main(["validate", "--quick", "--jobs", "4"])
        assert seen["jobs"] == 4
