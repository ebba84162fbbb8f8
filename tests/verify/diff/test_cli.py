"""``macaw-sim diff`` / ``macaw-sim fuzz`` front doors: exit codes + repro."""

from repro.verify.diff.cli import main_diff, main_fuzz
from repro.verify.diff.fuzz import load_repro


def test_diff_unknown_experiment_exits_2(capsys):
    assert main_diff(["no-such-experiment"]) == 2
    assert "no-such-experiment" in capsys.readouterr().err


def test_fuzz_bad_seed_exits_2(capsys):
    assert main_fuzz(["--seed", "nope"]) == 2
    assert "from-run-id" in capsys.readouterr().err


def test_fuzz_bad_budget_exits_2(capsys):
    assert main_fuzz(["--budget", "0"]) == 2
    assert "budget" in capsys.readouterr().err


def test_fuzz_clean_budget_smoke(capsys):
    code = main_fuzz(["--budget", "1", "--seed", "3", "--duration", "4",
                      "--quiet"])
    assert code == 0
    assert "passed the mode matrix clean" in capsys.readouterr().out


def test_fuzz_seed_from_run_id(monkeypatch, capsys):
    monkeypatch.setenv("GITHUB_RUN_ID", "123")
    code = main_fuzz(["--budget", "1", "--seed", "from-run-id",
                      "--duration", "4", "--quiet"])
    assert code == 0
    assert "seed 123" in capsys.readouterr().out


def test_diff_cli_localizes_and_writes_repro(tmp_path, perturb_mode, capsys):
    out = tmp_path / "repro.json"
    code = main_diff([
        "table2", "--duration", "6", "--warmup", "1", "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "DIVERGENCE" in captured.err
    assert "first divergent event" in captured.out

    payload = load_repro(str(out))
    assert payload["kind"] == "experiment"
    assert payload["exp_id"] == "table2"
    assert payload["mode_b"] == perturb_mode.to_dict()
    assert payload["divergence"]["event_index"] >= 0
    assert payload["divergence"]["record_a"] != payload["divergence"]["record_b"]
