"""`repro check` end-to-end: exit codes and output of the correctness gate."""

import pytest

from repro.cli import main


def run_check(capsys, extra=()):
    code = main(["check", "--quick", "--policies", "ddio", *extra])
    return code, capsys.readouterr().out


def test_check_quick_passes(capsys):
    code, out = run_check(capsys)
    assert code == 0
    assert "ok   sanitizer[ddio]" in out
    assert "ok   determinism" in out
    assert "ok   observed" in out
    assert "check: all clean" in out


def test_check_fails_when_observing_changes_the_run(capsys, monkeypatch):
    """A bare run that diverges from the checked one fails the gate."""
    from dataclasses import replace

    from repro.harness import runner

    real = runner.run_experiment_summary

    def diverging(experiment):
        summary = real(experiment)
        return replace(summary, completed=summary.completed + 1)

    monkeypatch.setattr(runner, "run_experiment_summary", diverging)
    code, out = run_check(capsys)
    assert code == 1
    assert "ok   determinism" in out
    assert "FAIL observed" in out


def test_check_rejects_empty_policy_list(capsys):
    assert main(["check", "--policies", ""]) == 2


def test_check_help_lists_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--help"])
    assert excinfo.value.code == 0
