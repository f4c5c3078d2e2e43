import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import subchan.channels
import subchan.cli
from subchan.channels import KrausChannel
from subchan.cli import main
from subchan.families import amplitude_damping, phase_damping
from subchan.fileio import save_channel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qutrit_file(tmp_path):
    """An encoding file of three unit rows on levels 0, 1 and 2."""
    path = tmp_path / "qutrit.txt"
    path.write_text("# levels 0, 1, 2\n1\n0 1\n0 0 1+0j\n")
    return str(path)


class TestHelp:
    @pytest.mark.parametrize("command", [
        [], ["fidelity"], ["hull-check"], ["fixed-points"], ["optimize"], ["sweep"],
        ["verify"], ["pairs"]])
    def test_help_exits_0_with_usage(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(" ".join(["usage: subchan", *command]))

    @pytest.mark.parametrize("command, rules", [
        ("pairs", ["--max-level MAX_LEVEL highest Fock level of the pairs, in (0, dim) "
                   "(default dim - 1)"]),
        ("sweep", ["--eta-start ETA_START first eta of the grid, 0 <= eta-start <= eta-end",
                   "--eta-end ETA_END last eta of the grid, eta-start <= eta-end <= 1"])])
    def test_help_states_the_rules_the_flags_are_held_to(self, capsys, command, rules):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        for rule in rules:
            assert rule in out

    def test_no_function_assigns_to_args(self):
        # Subcommands read their flags; the config merge's setattr calls are
        # the only writes to the namespace.
        tree = ast.parse(Path(subchan.cli.__file__).read_text())
        writes = [
            (func.name, target.attr)
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for assigned in getattr(node, "targets", [getattr(node, "target", None)])
            for target in ast.walk(assigned)
            if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "args"
        ]
        assert writes == []


class TestFidelityCommand:
    def test_phase_damping_value(self, capsys):
        for channel in ("pd", "phase-damping"):
            code, out, _ = run(
                capsys, "fidelity", "--channel", channel, "--eta", "0.5",
                "--levels", "0,1", "--dim", "32",
            )
            assert code == 0
            assert "0.833333333333" in out

    def test_amplitude_damping_value(self, capsys):
        for channel in ("ad", "amplitude-damping"):
            code, out, _ = run(
                capsys, "fidelity", "--channel", channel, "--eta", "0.25",
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

    def test_gap_above_tolerance_is_marked(self, capsys, monkeypatch):
        # A quadrature value shifted past CROSS_CHECK_TOL is reported, not
        # refused: the gap line carries the mark and the command exits 0.
        quadrature = subchan.cli.average_fidelity_quadrature

        def shifted(ch, enc):
            report = quadrature(ch, enc)
            return dataclasses.replace(report, value=report.value + 1e-6)

        argv = ["fidelity", "--channel", "ad", "--eta", "0.5", "--levels", "0,1",
                "--dim", "8", "--quadrature"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "TOLERANCE" not in out
        monkeypatch.setattr(subchan.cli, "average_fidelity_quadrature", shifted)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "cross-check gap: 1.000e-06 (ABOVE TOLERANCE)\n" in out
        code, out, _ = run(capsys, "sweep", "--channel", "pd", "--eta-start", "0.2",
                           "--eta-end", "0.8", "--steps", "2", "--levels", "0,1", "--dim", "6")
        assert code == 0
        gaps = [line.partition("gap=")[2] for line in out.splitlines() if "gap=" in line]
        assert len(gaps) == 2 and all(gap.endswith(" (ABOVE TOLERANCE)") for gap in gaps)

    def test_quadrature_grid_guard_exits_1(self, capsys, monkeypatch):
        # The limit is lowered so that the default grid is refused by its
        # estimate; no large grid is ever built.
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 16 * 16**2)
        code, _, err = run(
            capsys, "fidelity", "--channel", "pd", "--eta", "0.5",
            "--levels", "0,1", "--dim", "8", "--quadrature",
        )
        assert code == 1
        assert "quadrature grid" in err

    def test_three_levels(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.5", "--levels", "0,1,2",
        )
        assert code == 0
        assert "encoding: levels 0,1,2" in out
        assert "average fidelity (closed form): 0.655943361963" in out

    def test_quadrature_on_three_levels_exits_1_before_printing(self, capsys):
        code, out, err = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.5", "--levels", "0,1,2",
            "--dim", "8", "--quadrature",
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: need a d=2 subspace, got d=3"]

    def test_three_row_encoding_file(self, capsys, tmp_path):
        args = ("fidelity", "--channel", "ad", "--eta", "0.5", "--dim", "32")
        code, out, err = run(capsys, *args, "--encoding-file", qutrit_file(tmp_path))
        assert (code, err) == (0, "")
        assert "encoding: file encoding" in out
        assert "average fidelity (closed form): 0.655943361963" in out
        _, by_levels, _ = run(capsys, *args, "--levels", "0,1,2")
        assert out.replace("file encoding", "levels 0,1,2") == by_levels

    def test_quadrature_on_three_row_file_exits_1_before_printing(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.5", "--dim", "8",
            "--encoding-file", qutrit_file(tmp_path), "--quadrature",
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: need a d=2 subspace, got d=3"]

    @pytest.mark.parametrize("family", [("pd", "--eta"), ("ad", "--eta"), ("dep", "--p")])
    def test_guarded_dim_exits_1(self, capsys, monkeypatch, family):
        # The family's size estimate is checked before it allocates; with the
        # limit lowered, a small --dim stands for one above the real limit.
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 5 * 16**2 * 8)
        channel, flag = family
        code, out, err = run(
            capsys, "fidelity", "--channel", channel, flag, "0.5", "--levels", "0,1",
            "--dim", "17",
        )
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "at dim 17 needs" in line

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
        assert "--levels (e.g. 0,1,2)" in err

    @pytest.mark.parametrize("channel, needs", [
        ("pd", "phase damping needs --eta"), ("phase-damping", "phase damping needs --eta"),
        ("ad", "amplitude damping needs --eta"),
        ("amplitude-damping", "amplitude damping needs --eta"),
        ("dep", "depolarizing needs --p"), ("depolarizing", "depolarizing needs --p"),
        ("custom", "--channel custom needs --kraus-file")])
    def test_missing_parameter_is_domain_error(self, capsys, channel, needs):
        # The other family's flag does not stand in for the missing one.
        other = "--eta" if needs.endswith("--p") else "--p"
        code, out, err = run(
            capsys, "fidelity", "--channel", channel, other, "0.5", "--levels", "0,1")
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {needs}"]

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

    def test_more_code_words_than_dim_exit_1(self, capsys, tmp_path):
        # dim + 1 rows cannot be orthonormal; they are refused before their
        # Gram matrix is formed.
        enc = tmp_path / "enc.txt"
        enc.write_text("1\n" * 9)
        code, out, err = run(
            capsys, "fidelity", "--channel", "ad", "--eta", "0.5",
            "--encoding-file", str(enc), "--dim", "8",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: 9 code words cannot be orthonormal in dim 8"]

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
    def test_three_row_encoding_file(self, capsys, tmp_path):
        args = ("hull-check", "--channel", "ad", "--eta", "0.5", "--dim", "32")
        code, out, err = run(capsys, *args, "--encoding-file", qutrit_file(tmp_path))
        assert (code, err) == (0, "")
        assert "subspace: file encoding (d=3)" in out
        assert "verdict: an invariant hull" in out
        _, by_levels, _ = run(capsys, *args, "--levels", "0,1,2")
        assert out.replace("file encoding", "levels 0,1,2") == by_levels

    def test_nan_encoding_file_refused(self, capsys, tmp_path):
        enc = tmp_path / "enc.txt"
        enc.write_text("nan 0 0\n0 1 0\n")
        code, out, err = run(
            capsys, "hull-check", "--channel", "ad", "--eta", "0.5",
            "--encoding-file", str(enc), "--dim", "4",
        )
        assert code == 1
        assert out == ""
        assert "not orthonormal (Gram defect nan)" in err

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

    def test_empty_level_list_refused(self, capsys):
        code, out, err = run(
            capsys, "hull-check", "--channel", "ad", "--eta", "0.5",
            "--dim", "8", "--levels", ",",
        )
        assert code == 1
        assert out == ""
        assert "level list is empty" in err


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
        monkeypatch.setenv("SUBCHAN_SEED", "abc")
        code, out, err = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "0,1", "--restarts", "2",
        )
        assert (code, out) == (1, "")
        assert err == "error: SUBCHAN_SEED must be an integer, got 'abc'\n"

    def test_negative_seed_flag_is_named(self, capsys):
        code, out, err = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "0,1", "--restarts", "2", "--seed", "-3",
        )
        assert (code, out) == (1, "")
        assert err == "error: --seed must be a non-negative integer, got -3\n"

    def test_negative_env_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBCHAN_SEED", "-3")
        code, out, err = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "0,1", "--restarts", "2",
        )
        assert (code, out) == (1, "")
        assert err == "error: SUBCHAN_SEED must be a non-negative integer, got -3\n"

    def test_reports_starts_and_code_words(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "2,0", "--restarts", "3", "--seed", "1",
        )
        assert code == 0
        assert "starts converged: 3 of 3 (step cap: 0, non-ascent: 0)" in out
        assert "best code words on levels 2,0:\n  psi0: 1 0\n  psi1: 0 1\n" in out

    def test_phase_damping_spread_levels_find_the_best_pair(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--channel", "pd", "--eta", "0.5", "--levels", "0,2,3,5",
            "--restarts", "5", "--seed", "7",
        )
        assert code == 0
        assert "best average fidelity: 0.833333333333" in out

    def test_complex_coefficients_printed(self, capsys, tmp_path):
        # Phase damping in a random basis of levels 0-2: its best codes span
        # two of the basis vectors, whose coefficients are complex.
        u = np.eye(6, dtype=complex)
        u[:3, :3] = unitary_group.rvs(3, random_state=3)
        path = tmp_path / "rotated_pd.txt"
        save_channel(KrausChannel(u @ phase_damping(0.5, 6).kraus_ops @ u.conj().T), path)
        code, out, _ = run(
            capsys, "optimize", "--channel", "custom", "--kraus-file", str(path),
            "--levels", "0,1,2", "--restarts", "2", "--seed", "1",
        )
        assert code == 0
        assert "best average fidelity: 0.833333333333" in out
        words = [line.split()[1:] for line in out.splitlines() if line.startswith("  psi")]
        coefficients = np.array([[complex(z) for z in word] for word in words])
        assert coefficients.shape == (2, 3)
        assert np.max(np.abs(coefficients @ coefficients.conj().T - np.eye(2))) <= 1e-11
        assert np.any(coefficients.imag != 0)

    def test_level_guard_exits_1(self, capsys, monkeypatch):
        # The limit is lowered one byte below four levels' estimate, which
        # refuses them; the channel at dim 6 needs less, and the level tensor
        # is never built.
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 4**4 * 16 - 1)
        code, _, err = run(
            capsys, "optimize", "--channel", "ad", "--eta", "0.5", "--dim", "6",
            "--levels", "0,1,2,3", "--restarts", "1",
        )
        assert code == 1
        assert "a search on 4 levels needs" in err


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
        # The short and the long name of a family write the same bytes.
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, channel in zip(paths, ("ad", "amplitude-damping")):
            code, _, _ = run(
                capsys, "sweep", "--channel", channel, "--eta-start", "0.2",
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

    def test_grid_guard_exits_1(self, capsys, monkeypatch):
        # The limit is lowered below 1000 steps' grid and rows, which are
        # refused by their estimate before the grid is built.
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 4 * 1000 * 8 - 1)
        code, out, err = run(
            capsys, "sweep", "--channel", "pd", "--eta-start", "0.1", "--eta-end", "0.9",
            "--steps", "1000", "--levels", "0,1", "--dim", "8",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: a sweep of 1000 steps needs 0.00 GB; limit is 0.00 GB."]

    def test_three_levels_exit_1_before_printing(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0", "--eta-end", "1",
            "--steps", "3", "--levels", "0,1,2", "--dim", "6", "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: need a d=2 subspace, got d=3"]
        assert not out_path.exists()

    def test_three_row_file_exits_1_before_printing(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--channel", "ad", "--eta-start", "0", "--eta-end", "1",
            "--steps", "3", "--encoding-file", qutrit_file(tmp_path), "--dim", "6",
            "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: need a d=2 subspace, got d=3"]
        assert not out_path.exists()

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
        for family, value in (("channel=ad\neta=0.25", "0.708333333333"),
                              ("channel=depolarizing\np=0.3", "0.34375")):
            cfg.write_text(f"# defaults\n{family}\ndim=16\nlevels=0,1\n")
            code, out, _ = run(capsys, "fidelity", "--config", str(cfg))
            assert code == 0
            assert f"average fidelity (closed form): {value}\n" in out

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

    @pytest.mark.parametrize("key", ["kraus-terms=3", "n-theta=16", "n-phi=16"])
    def test_kraus_terms_key_is_unknown(self, capsys, tmp_path, key):
        # Phase damping is the exact multiplier; no truncation is selectable.
        # The quadrature grid is exact at its default, so neither is its size.
        cfg = tmp_path / "cfg"
        cfg.write_text(f"channel=pd\neta=0.5\ndim=8\nlevels=0,1\n{key}\n")
        code, out, err = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert f"unknown config key {key.partition('=')[0]!r}" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("just a line\n")
        code, _, err = run(capsys, "fidelity", "--config", str(cfg))
        assert code == 1
        assert "key=value" in err
        # A value that does not parse names its key.
        for line, message in (
                ("eta=", "config key 'eta': could not convert string to float: ''"),
                ("dim=8.5", "config key 'dim': invalid literal for int() with base 10: '8.5'"),
                ("quadrature=maybe", "config key 'quadrature': not a boolean: 'maybe'")):
            cfg.write_text(f"channel=ad\ndim=8\nlevels=0,1\n{line}\n")
            code, out, err = run(capsys, "fidelity", "--config", str(cfg))
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_quadrature_key_prints_the_quadrature(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("channel=ad\neta=0.5\ndim=8\nlevels=0,1\nquadrature=yes\n")
        code, out, err = run(capsys, "fidelity", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert "average fidelity (quadrature):  0.819035593729\n" in out
        assert "cross-check gap: " in out

    def test_key_of_another_subcommand_is_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("channel=ad\neta=0.5\ndim=8\nlevels=0,1\nrestarts=3\n")
        code, out, err = run(capsys, "fidelity", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out.endswith("average fidelity (closed form): 0.819035593729\n")


class TestErrorPaths:
    @pytest.mark.parametrize("argv, config, message", [
        (["fidelity", "--levels", "0,1"], None, "--channel is required"),
        # argparse's choices stop an unknown --channel; a config value gets past them.
        (["fidelity"], "channel=xyz\neta=0.5\nlevels=0,1\n",
         "unknown channel 'xyz'; choose from ['ad', 'amplitude-damping', 'custom', 'dep', "
         "'depolarizing', 'pd', 'phase-damping']"),
        (["fidelity", "--channel", "ad", "--eta", "0.5", "--levels", "0,a"], None,
         "bad --levels value '0,a'; expected e.g. 0,1"),
        (["fidelity", "--channel", "ad", "--eta", "0.5", "--levels", "0,1",
          "--encoding-file", "ENCODING"], None, "give --levels or --encoding-file, not both"),
        (["optimize", "--channel", "ad", "--eta", "0.5"], None,
         "--levels is required for optimize"),
        (["sweep", "--channel", "ad", "--levels", "0,1"], None,
         "sweep needs --eta-start and --eta-end"),
        (["sweep", "--channel", "custom", "--levels", "0,1", "--eta-start", "0.1",
          "--eta-end", "0.5"], None, "sweep needs a parametric family (pd, ad, or dep)"),
    ])
    def test_exits_1_with_one_error_line(self, capsys, tmp_path, argv, config, message):
        argv = [qutrit_file(tmp_path) if a == "ENCODING" else a for a in argv]
        if config is not None:
            cfg = tmp_path / "cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("header", ["dimension 2", "dim5 2"])
    def test_misspelt_dim_line_refused(self, capsys, tmp_path, header):
        path = tmp_path / "bad.chan"
        path.write_text(f"{header}\nkraus 0\n1 0\n0 1\n")
        code, out, err = run(capsys, "verify", "--channel", "custom", "--kraus-file", str(path))
        assert (code, out, err) == (1, "", "error: channel file must start with a 'dim N' line\n")


class TestPairsCommand:
    def test_amplitude_damping_at_dim_256(self, capsys):
        # The README's largest truncation: every one of the 255 * 256 / 2 pairs.
        code, out, _ = run(capsys, "pairs", "--channel", "ad", "--eta", "0.5", "--dim", "256")
        assert code == 0
        assert "(32640 pairs, best first)" in out
        assert sum(line.startswith("  (") for line in out.splitlines()) == 32640

    def test_phase_damping(self, capsys):
        code, out, _ = run(
            capsys, "pairs", "--channel", "pd", "--eta", "0.5", "--dim", "8",
            "--max-level", "4",
        )
        assert code == 0
        assert "tied at the top" in out
        assert out.index("(0,1)") < out.index("(0,2)")
