import numpy as np
import pytest
from scipy.stats import unitary_group

import subchan.encodings
import subchan.fidelity
from subchan.channels import KrausChannel
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

    def test_quadrature_grid_guard_exits_1(self, capsys, monkeypatch):
        # The limit is lowered so that the default grid is refused by its
        # estimate; no large grid is ever built.
        monkeypatch.setattr(subchan.fidelity, "MAX_KRAUS_BYTES", 16 * 16**2)
        code, _, err = run(
            capsys, "fidelity", "--channel", "pd", "--eta", "0.5",
            "--levels", "0,1", "--dim", "8", "--quadrature",
        )
        assert code == 1
        assert "quadrature grid" in err

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

    def test_kraus_terms_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "--channel", "pd", "--eta", "0.5", "--levels", "0,1",
                  "--kraus-terms", "3"])
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
    def test_nan_encoding_file_refused(self, capsys, tmp_path):
        enc = tmp_path / "enc.txt"
        enc.write_text("nan 0 0\n0 1 0\n")
        code, out, err = run(
            capsys, "hull-check", "--channel", "ad", "--eta", "0.5",
            "--encoding-file", str(enc), "--dim", "4",
        )
        assert code == 1
        assert out == ""
        assert "psi0 norm defect nan" in err

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

    def test_dim_guard(self, capsys, tmp_path):
        # A dense dim-65 unitary has no band form, so only the dense
        # superoperator route can take it, and that route stops at dim 64.
        path = tmp_path / "unitary.txt"
        save_channel(KrausChannel(unitary_group.rvs(65, random_state=65)), path)
        code, _, err = run(
            capsys, "fixed-points", "--channel", "custom", "--kraus-file", str(path),
        )
        assert code == 1
        assert "superoperator" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_cutoff_exits_1(self, capsys, tol):
        code, out, err = run(
            capsys, "fixed-points", "--channel", "pd", "--eta", "0.5", "--dim", "4",
            "--tol", tol,
        )
        assert code == 1
        assert "dimension" not in out
        assert "cutoff must be positive and finite" in err

    def test_band_channel_above_dense_limit(self, capsys):
        code, out, _ = run(
            capsys, "fixed-points", "--channel", "ad", "--eta", "0.3", "--dim", "128",
        )
        assert code == 0
        assert "dimension: 1" in out

    def test_depolarizing_labels_its_parameter_p(self, capsys):
        code, out, _ = run(
            capsys, "fixed-points", "--channel", "dep", "--p", "0.3", "--dim", "16",
        )
        assert code == 0
        assert "channel: depolarizing (p=0.3," in out
        assert "dimension: 1" in out


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

    def test_reports_starts_and_code_words(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "2,0", "--restarts", "3", "--seed", "1",
        )
        assert code == 0
        assert "starts converged: 3 of 3 (step cap: 0, non-ascent: 0)" in out
        assert "best code words on levels 2,0:\n  psi0: 1 0\n  psi1: 0 1\n" in out

    def test_complex_coefficients_printed(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--channel", "dep", "--p", "0.5", "--dim", "6",
            "--levels", "0,1,2", "--restarts", "2", "--seed", "1",
        )
        assert code == 0
        words = [line.split()[1:] for line in out.splitlines() if line.startswith("  psi")]
        coefficients = np.array([[complex(z) for z in word] for word in words])
        assert coefficients.shape == (2, 3)
        assert np.max(np.abs(coefficients @ coefficients.conj().T - np.eye(2))) <= 1e-11
        assert np.any(coefficients.imag != 0)

    def test_level_guard_exits_1(self, capsys, monkeypatch):
        # The limit is lowered so that three levels are refused by their
        # estimate; the level tensor is never built.
        monkeypatch.setattr(subchan.encodings, "MAX_KRAUS_BYTES", 2 * 2**4 * 16)
        code, _, err = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "0,1,2", "--restarts", "1",
        )
        assert code == 1
        assert "a search on 3 levels needs" in err


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

    def test_kraus_terms_key_is_unknown(self, capsys, tmp_path):
        # Phase damping is the exact multiplier; no truncation is selectable.
        cfg = tmp_path / "cfg"
        cfg.write_text("channel=pd\neta=0.5\ndim=8\nlevels=0,1\nkraus-terms=3\n")
        code, out, err = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "unknown config key 'kraus-terms'" in err

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

    def test_phase_damping_exact_at_256(self, capsys):
        code, out, _ = run(capsys, "verify", "--channel", "pd", "--eta", "0.5", "--dim", "256")
        assert code == 0
        assert "trace-preservation defect: 0.000e+00 (ok)" in out

    def test_non_finite_channel_file_refused(self, capsys, tmp_path):
        path = tmp_path / "nan.chan"
        path.write_text("dim 2\nkraus 0\n1 0\n0 nan\n")
        code, out, err = run(capsys, "verify", "--channel", "custom", "--kraus-file", str(path))
        assert code == 1
        assert out == ""
        assert "non-finite" in err


class TestPairsCommand:
    def test_phase_damping(self, capsys):
        code, out, _ = run(
            capsys, "pairs", "--channel", "pd", "--eta", "0.5", "--dim", "8",
            "--max-level", "4",
        )
        assert code == 0
        assert "tied at the top" in out
        assert out.index("(0,1)") < out.index("(0,2)")
