import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dp2guard import cli
from dp2guard.cli import main

DIVERGING = dict(n_clients=4, rounds=2, synth_train=200, synth_test=50,
                 synth_separation=1e300, eta=1e6)


def _write_config(tmp_path, **overrides):
    cfg = dict(dataset="synthetic", aggregator="dp2guard", n_clients=8, rounds=3,
               seed=1, synth_train=400, synth_test=200, synth_features=10,
               synth_classes=3)
    cfg.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def _shell(*args: str) -> subprocess.CompletedProcess:
    """`dp2guard ARGS` run from the shell, as a user runs it."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "dp2guard.cli", *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


class TestRunCommand:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("metrics.csv", "ledger.jsonl", "plot.svg",
                     "resolved-config.json"):
            assert (out / name).exists()
        assert "final accuracy" in capsys.readouterr().out

    def test_reused_output_dir_exits_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ledger = (out / "ledger.jsonl").read_bytes()
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert (out / "ledger.jsonl").read_bytes() == ledger

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"dataset": "synthetic", "bogus": 1}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_removed_projection_dim_exits_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, projection_dim=8)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and "projection_dim" in err
        assert not (tmp_path / "o").exists()

    def test_nonpositive_dirichlet_alpha_exits_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, partition="dirichlet", alpha=0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_ill_typed_config_value_exits_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, rounds=2.5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rounds" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_empty_client_partition_exits_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, synth_train=100, n_clients=400,
                            partition="dirichlet", alpha=0.01)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_diverging_run_exits_two(self, tmp_path, capsys):
        # An admitted config whose training overflows to non-finite
        # gradients stops in training with a typed error, not a traceback
        # and exit 1 (verify-ledger's code for a bad block).
        cfg = _write_config(tmp_path, **DIVERGING)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("aggregator", ["dp2guard", "fedavg", "dnc"])
    def test_diverging_run_fails_on_its_cause_from_the_shell(self, tmp_path, aggregator):
        # With numpy's warnings shown, as from the shell: the first
        # non-finite gradient ends the run, under every rule, with exactly
        # one stderr line that names the client and the round.
        cfg = _write_config(tmp_path, aggregator=aggregator, **DIVERGING)
        proc = _shell("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: client 0's gradient in round 0 ")
        assert list((tmp_path / "o").iterdir()) == []  # nothing was published

    @pytest.mark.parametrize("aggregator", ["dp2guard", "fedavg"])
    def test_diverging_model_exits_two_from_the_shell(self, tmp_path, aggregator):
        # Finite gradients times a huge step size overflow the model, not
        # the training: the run stops after that round's update with one
        # stderr line naming the round, not with an overflow warning and
        # an accuracy scored from non-finite logits.
        cfg = _write_config(tmp_path, aggregator=aggregator, n_clients=4, rounds=1,
                            synth_train=200, synth_test=50, eta=1e308, local_mode="batch")
        proc = _shell("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: the model after round 0 ")
        assert "Warning" not in proc.stderr
        # What round 0 published stays, as it was written: a dp2guard run's
        # ledger block and its four detection.csv lines.
        out = tmp_path / "o"
        names = sorted(p.name for p in out.iterdir())
        if aggregator == "dp2guard":
            assert names == ["detection.csv", "ledger.jsonl"]
            lines = (out / "detection.csv").read_text().splitlines()
            assert lines[0] == "round,client_id,s,c,cluster,benign"
            assert [line.split(",")[:2] for line in lines[1:]] == [["0", str(k)] for k in range(4)]
            assert len((out / "ledger.jsonl").read_text().splitlines()) == 1
        else:
            assert names == []


@pytest.mark.parametrize("case", ["verify-ledger-dir", "config-dir", "config-not-utf8",
                                  "sweep-config-not-utf8"])
def test_unreadable_input_exits_two_from_the_shell(tmp_path, case):
    # A path that cannot be read as the command needs fails on its cause:
    # exit 2 and one `error:` line, not a traceback and exit 1.
    bad_text = tmp_path / "latin1.json"
    bad_text.write_bytes('{"dataset": "synthétique"}'.encode("latin-1"))
    out = str(tmp_path / "o")
    args = {"verify-ledger-dir": ["verify-ledger", str(tmp_path)],
            "config-dir": ["run", "--config", str(tmp_path), "--out", out],
            "config-not-utf8": ["run", "--config", str(bad_text), "--out", out],
            "sweep-config-not-utf8": ["sweep", "--config", str(bad_text),
                                      "--vary", "seed=1,2", "--out", out]}[case]
    proc = _shell(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not (tmp_path / "o").exists()


class TestVerifyLedgerCommand:
    def test_intact_chain_exits_zero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert main(["verify-ledger", str(out / "ledger.jsonl")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_corrupted_chain_exits_one_with_index(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        ledger = out / "ledger.jsonl"
        lines = ledger.read_text().splitlines()
        lines[1] = lines[1].replace('"round":1', '"round":9')
        ledger.write_text("\n".join(lines) + "\n")
        assert main(["verify-ledger", str(ledger)]) == 1
        assert "1" in capsys.readouterr().out

    def test_intact_chain_prints_block_count_and_head_from_the_shell(self, tmp_path):
        # The head's hash commits to every block, so printing it lets an
        # auditor compare the file against a published head.
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        lines = (out / "ledger.jsonl").read_text().splitlines()
        proc = _shell("verify-ledger", str(out / "ledger.jsonl"))
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == f"ok: 3 blocks, head {json.loads(lines[-1])['hash']}\n"

    @pytest.mark.parametrize("content", [b"", b"\n"])
    def test_ledger_without_blocks_exits_one_from_the_shell(self, tmp_path, content):
        # Every run writes at least one block, so an empty file is no chain.
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_bytes(content)
        proc = _shell("verify-ledger", str(ledger))
        assert proc.returncode == 1
        assert proc.stdout == "first bad block index: 0\n"


class TestSweepCommand:
    def test_one_dir_per_point_plus_plot(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, adv_ratio=0.25,
                            attack={"kind": "minmax", "direction": "-mean"})
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg),
                   "--vary", "adv_ratio=0,0.25", "--out", str(out)])
        assert rc == 0
        assert (out / "adv_ratio=0" / "metrics.csv").exists()
        assert (out / "adv_ratio=0.25" / "metrics.csv").exists()
        assert (out / "sweep.svg").read_text().startswith("<svg")

    def test_non_json_value_exits_two_before_any_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, adv_ratio=0.25,
                            attack={"kind": "minmax", "direction": "-mean"})
        out = tmp_path / "s"
        rc = main(["sweep", "--config", str(cfg),
                   "--vary", "adv_ratio=0,abc", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abc'" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_field_rejected(self, tmp_path):
        cfg = _write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg),
                   "--vary", "bogus=1,2", "--out", str(tmp_path / "s")])
        assert rc == 2

    @pytest.mark.parametrize("vary", ['aggregator="fedavg","dnc"', "adv_ratio=0,true",
                                      "adv_ratio=0,null", "adv_ratio=0,NaN",
                                      "seed=1,1" + "0" * 400],
                             ids=["string", "bool", "null", "nan", "huge-int"])
    def test_non_numeric_value_exits_two_before_any_run(self, tmp_path, capsys, vary):
        # The plot puts each value on its x axis, so all of them are checked
        # before the first experiment writes anything.
        cfg = _write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--vary", vary, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("taken", ["duplicate", "existing-artifact", "existing-plot"])
    def test_taken_point_directory_exits_two_before_any_run(self, tmp_path, capsys, taken):
        # Each value writes its own directory; one that a repeated value or
        # an earlier run already holds, or an earlier sweep's plot, stops
        # the sweep before the first value runs.
        cfg = _write_config(tmp_path, rounds=1)
        out = tmp_path / "s"
        vary = "seed=1,2,1" if taken == "duplicate" else "seed=1,2"
        if taken == "existing-artifact":
            (out / "seed=2").mkdir(parents=True)
            (out / "seed=2" / "metrics.csv").write_text("")
        elif taken == "existing-plot":
            out.mkdir()
            (out / "sweep.svg").write_text("<svg/>")
        assert main(["sweep", "--config", str(cfg), "--vary", vary, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("given twice" if taken == "duplicate" else "already exists") in err
        assert not (out / "seed=1").exists()
        if taken == "existing-plot":
            assert (out / "sweep.svg").read_text() == "<svg/>"

    def test_scale_search_without_two_honest_clients_exits_two_before_any_run(
            self, tmp_path, capsys):
        # Three clients at adv_ratio 0.34 leave one honest gradient; the
        # sweep used to run adv_ratio=0, then fail without its plot.
        cfg = _write_config(tmp_path, n_clients=3,
                            attack={"kind": "minmax", "direction": "-mean"})
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg),
                     "--vary", "adv_ratio=0,0.34", "--out", str(out)]) == 2
        assert "two honest clients" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_later_config_exits_two_before_any_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg),
                     "--vary", "beta=0.5,1.5", "--out", str(out)]) == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()
