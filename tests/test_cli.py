import json

import pytest

from dp2guard.cli import main


def _write_config(tmp_path, **overrides):
    cfg = dict(dataset="synthetic", aggregator="dp2guard", n_clients=8, rounds=3,
               seed=1, synth_train=400, synth_test=200, synth_features=10,
               synth_classes=3)
    cfg.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


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

    def test_invalid_later_config_exits_two_before_any_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg),
                     "--vary", "beta=0.5,1.5", "--out", str(out)]) == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()
