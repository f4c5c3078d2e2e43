import numpy as np
import pytest

from subchan.channels import apply_channel
from subchan.families import amplitude_damping
from subchan.fileio import (
    format_complex,
    load_channel,
    parse_channel_text,
    parse_coefficient_rows,
    save_channel,
)
from subchan.fock import random_hermitian

SAMPLE = """
# single-qubit amplitude damping at eta = 0.75
dim 2
kraus 0
1+0j 0+0j
0+0j 0.8660254037844386+0j
kraus 1
0+0j 0.5+0j
0+0j 0+0j
"""


class TestParse:
    def test_sample_acts_correctly(self):
        ch = parse_channel_text(SAMPLE)
        assert ch.dim == 2
        assert ch.kraus_truncation == 2
        out = apply_channel(ch, np.diag([0.0, 1.0]).astype(complex))
        assert out[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert out[1, 1] == pytest.approx(0.75, abs=1e-12)

    def test_roundtrip_preserves_action(self, tmp_path):
        ch = amplitude_damping(0.3, 4)
        path = tmp_path / "ad.chan"
        save_channel(ch, path)
        loaded = load_channel(path)
        rng = np.random.default_rng(0)
        x = random_hermitian(4, rng)
        assert np.max(np.abs(apply_channel(ch, x) - apply_channel(loaded, x))) < 1e-15
        assert loaded.family == "custom"

    def test_format_complex_roundtrip(self):
        for z in (1 + 2j, -0.123456789012345 + 9.87e-5j, 0j, 3.0 - 0j):
            assert complex(format_complex(z)) == z

    def test_missing_dim(self):
        with pytest.raises(ValueError, match="dim"):
            parse_channel_text("kraus 0\n1 0\n0 1\n")

    @pytest.mark.parametrize("header", ["dimension 2", "dim5 2"])
    def test_dim_must_be_the_whole_first_word(self, header):
        with pytest.raises(ValueError, match=r"^channel file must start with a 'dim N' line$"):
            parse_channel_text(f"{header}\nkraus 0\n1 0\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="kraus"):
            parse_channel_text("dim 2\noperator 0\n1 0\n0 1\n")

    def test_non_integer_dim(self):
        with pytest.raises(ValueError, match=r"^malformed dim line: 'dim abc'$"):
            parse_channel_text("dim abc\nkraus 0\n1 0\n0 1\n")

    def test_non_integer_kraus_index(self):
        with pytest.raises(ValueError, match=r"^expected 'kraus i' header, got 'kraus x'$"):
            parse_channel_text("dim 2\nkraus x\n1 0\n0 1\n")

    def test_out_of_order_headers(self):
        with pytest.raises(ValueError, match="out of order"):
            parse_channel_text("dim 2\nkraus 1\n1 0\n0 1\n")

    def test_entries_are_the_literals_bits(self):
        # Signed zeros, subnormals and 17-digit values, as complex() reads each one.
        rng = np.random.default_rng(4)
        ops = rng.normal(size=(3, 5, 5)) * 10.0 ** rng.integers(-320, 150, size=(3, 5, 5))
        ops = ops + 1j * rng.normal(size=(3, 5, 5))
        ops[0, 1, 2], ops[1, 0, 0], ops[2, 4, 4] = -0.0, complex(-0.0, -0.0), 5e-324
        text = "dim 5\n" + "".join(
            f"kraus {i}\n" + "".join(" ".join(format_complex(z) for z in row) + "\n" for row in op)
            for i, op in enumerate(ops))
        parsed = parse_channel_text(text).kraus_ops
        assert parsed.shape == (3, 5, 5)
        assert parsed.tobytes() == ops.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("dim 2\nkraus 0\n1 0\n0 1\nkraus 1\n1 0\n0\n",
         "kraus 1 row 1: expected 2 entries, got 1"),
        ("dim 2\nkraus 0\n1 0\n0 spam\n",
         "kraus 0 row 1: bad complex literal (complex() arg is a malformed string)"),
    ])
    def test_row_errors_name_the_operator_and_row(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_channel_text(text)
        assert str(info.value) == message

    def test_short_row(self):
        with pytest.raises(ValueError, match="expected 2 entries"):
            parse_channel_text("dim 2\nkraus 0\n1\n0 1\n")

    def test_truncated_file(self):
        with pytest.raises(ValueError, match="ended early"):
            parse_channel_text("dim 2\nkraus 0\n1 0\n")

    def test_bad_literal(self):
        with pytest.raises(ValueError, match="complex"):
            parse_channel_text("dim 2\nkraus 0\n1 spam\n0 1\n")

    def test_no_operators(self):
        with pytest.raises(ValueError, match="no Kraus"):
            parse_channel_text("dim 2\n")


class TestCoefficientRows:
    def test_parse(self):
        c, d = parse_coefficient_rows("# encoding\n1+0j 0+0j\n0+0j 0-1j\n")
        assert np.array_equal(c, [1, 0])
        assert np.array_equal(d, [0, -1j])

    def test_one_row_per_code_word(self):
        # Any number of rows, one per code word; a file with none is refused.
        (row,) = parse_coefficient_rows("0 1\n")
        assert np.array_equal(row, [0, 1])
        rows = parse_coefficient_rows("1\n# comment\n0 1\n\n0 0 1j\n")
        assert [r.tolist() for r in rows] == [[1], [0, 1], [0, 0, 1j]]
        with pytest.raises(ValueError, match="no coefficient rows"):
            parse_coefficient_rows("# nothing here\n\n")

    def test_rows_may_differ_in_length(self):
        c, d = parse_coefficient_rows("1\n0 1\n")
        assert c.size == 1 and d.size == 2
