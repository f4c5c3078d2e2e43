import pytest

from subchan.cli import main
from subchan.families import amplitude_damping
from subchan.fileio import save_channel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFidelityCommand:
    def test_phase_damping_value(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--channel", "pd", "--eta", "0.5",
            "--levels", "0,1", "--dim", "32",
        )
        assert code == 0
        assert "0.833333333333" in out

    def test_amplitude_damping_value(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.25",
            "--levels", "0,1", "--dim", "32",
        )
        assert code == 0
        assert "0.708333333333" in out

    def test_quadrature_flag_prints_gap(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.5",
            "--levels", "0,1", "--dim", "16", "--quadrature",
        )
        assert code == 0
        assert "quadrature" in out
        assert "cross-check gap" in out

    def test_tp_defect_shown(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--channel", "pd", "--eta", "0.5",
            "--levels", "0,1", "--dim", "16",
        )
        assert code == 0
        assert "tp_defect=" in out
        assert "unitality_defect" not in out

    def test_eta_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "fidelity", "--channel", "pd", "--eta", "0",
            "--levels", "0,1",
        )
        assert code == 1
        assert "eta" in err

    def test_missing_encoding_is_domain_error(self, capsys):
        code, _, err = run(capsys, "fidelity", "--channel", "pd", "--eta", "0.5")
        assert code == 1
        assert "encoding" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "--warp", "9"])
        assert exc.value.code == 2

    def test_encoding_file(self, capsys, tmp_path):
        enc = tmp_path / "enc.txt"
        enc.write_text("1+0j 0+0j\n0+0j 1+0j\n")
        code, out, _ = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.25",
            "--encoding-file", str(enc), "--dim", "16",
        )
        assert code == 0
        assert "0.708333333333" in out

    def test_custom_channel_file(self, capsys, tmp_path):
        path = tmp_path / "ad.chan"
        save_channel(amplitude_damping(0.25, 8), path)
        code, out, _ = run(
            capsys, "fidelity", "--channel", "custom", "--kraus-file", str(path),
            "--levels", "0,1",
        )
        assert code == 0
        assert "0.708333333333" in out


class TestHullCheckCommand:
    def test_depolarizing_not_invariant(self, capsys):
        code, out, _ = run(
            capsys, "hull-check", "--channel", "dep", "--p", "0.3",
            "--levels", "0,1", "--dim", "4",
        )
        assert code == 0
        assert "not an invariant hull" in out

    def test_amplitude_damping_lowest_pair(self, capsys):
        code, out, _ = run(
            capsys, "hull-check", "--channel", "ad", "--eta", "0.5",
            "--levels", "0,1", "--dim", "16",
        )
        assert code == 0
        assert "verdict: an invariant hull" in out
        assert "unital subchannel: no" in out


class TestFixedPointsCommand:
    def test_amplitude_damping(self, capsys):
        code, out, _ = run(
            capsys, "fixed-points", "--channel", "ad", "--eta", "0.3", "--dim", "16",
        )
        assert code == 0
        assert "dimension: 1" in out
        assert "|0><0|" in out

    def test_dim_guard(self, capsys):
        code, _, err = run(
            capsys, "fixed-points", "--channel", "ad", "--eta", "0.3", "--dim", "128",
        )
        assert code == 1
        assert "superoperator" in err


class TestOptimizeCommand:
    def test_recovers_reference(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.25", "--dim", "8",
            "--levels", "0,1,2", "--restarts", "6", "--seed", "3",
        )
        assert code == 0
        assert "best average fidelity: 0.708333333" in out

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBCHAN_SEED", "17")
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
                "--levels", "0,1", "--restarts", "2",
            )
            assert code == 0
            assert "seed: 17" in out
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestSweepCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0", "--eta-end", "1",
            "--steps", "11", "--levels", "0,1", "--dim", "8", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "eta,fidelity_closed,fidelity_quadrature,gap,encoding"
        assert len(lines) == 12
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == pytest.approx(0.5, abs=1e-10)
        assert float(last[0]) == 1.0 and float(last[1]) == pytest.approx(1.0, abs=1e-10)
        assert all(float(line.split(",")[3]) <= 1e-10 for line in lines[1:])

    def test_byte_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "sweep", "--channel", "ad", "--eta-start", "0.2",
                "--eta-end", "0.8", "--steps", "4", "--levels", "0,1",
                "--dim", "6", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_csv_without_out(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0", "--eta-end", "1",
            "--steps", "3", "--levels", "0,1", "--dim", "6",
        )
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_grid_validation(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0.9", "--eta-end", "0.1",
            "--steps", "3", "--levels", "0,1",
        )
        assert code == 1
        code, _, err = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0", "--eta-end", "1",
            "--steps", "1", "--levels", "0,1",
        )
        assert code == 1

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0", "--eta-end", "1",
            "--steps", "2", "--levels", "0,1", "--dim", "6",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1
        assert "cannot write" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# defaults\nchannel=ad\neta=0.25\ndim=16\nlevels=0,1\n")
        code, out, _ = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 0
        assert "0.708333333333" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("channel=ad\neta=0.25\ndim=16\nlevels=0,1\n")
        code, out, _ = run(capsys, "fidelity", "--config", str(cfg), "--eta", "1.0")
        assert code == 0
        assert "average fidelity (closed form): 1" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("warp=9\n")
        code, _, err = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("just a line\n")
        code, _, err = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 1
        assert "key=value" in err


class TestVerifyCommand:
    def test_amplitude_damping(self, capsys):
        code, out, _ = run(capsys, "verify", "--channel", "ad", "--eta", "0.5", "--dim", "16")
        assert code == 0
        assert "trace-preservation defect" in out
        assert "ok" in out


class TestPairsCommand:
    def test_phase_damping(self, capsys):
        code, out, _ = run(
            capsys, "pairs", "--channel", "pd", "--eta", "0.5", "--dim", "8",
            "--max-level", "4",
        )
        assert code == 0
        assert "tied at the top" in out
        assert out.index("(0,1)") < out.index("(0,2)")
