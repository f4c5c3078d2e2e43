"""Text formats for channels and encoding coefficients.

Channel files
-------------
Line 1:                 ``dim N``
then, per Kraus operator, a header ``kraus i`` (i = 0, 1, ...) followed by
N lines of N whitespace-separated complex entries in ``re+imj`` form, e.g.

    dim 2
    kraus 0
    1+0j 0+0j
    0+0j 0.8660254037844386+0j
    kraus 1
    0+0j 0.5+0j
    0+0j 0+0j

Entries accept anything Python's ``complex()`` does (``1``, ``0.5``,
``-2e-3+1e-4j``); no whitespace inside a number. Blank lines and lines
starting with ``#`` are ignored.

Encoding coefficient files
--------------------------
One non-comment line per code word, at least one, each a whitespace-separated
row of complex coefficients in the same grammar (zero-padded to the working
truncation by the loader's caller).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .channels import KrausChannel


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _complex_row(line: str, expected: int | None, context: str) -> list[complex]:
    tokens = line.split()
    if expected is not None and len(tokens) != expected:
        raise ValueError(f"{context}: expected {expected} entries, got {len(tokens)}")
    try:
        return [complex(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"{context}: bad complex literal ({exc})") from None


def parse_channel_text(text: str) -> KrausChannel:
    lines = _content_lines(text)
    parts = lines[0].split() if lines else []
    if not parts or parts[0] != "dim":
        raise ValueError("channel file must start with a 'dim N' line")
    if len(parts) != 2 or not _is_int(parts[1]):
        raise ValueError(f"malformed dim line: {lines[0]!r}")
    dim = int(parts[1])
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")

    # Every entry of every operator, row by row, made into one array at the end.
    entries: list[complex] = []
    terms = 0
    pos = 1
    while pos < len(lines):
        header = lines[pos].split()
        if header[0] != "kraus" or len(header) != 2 or not _is_int(header[1]):
            raise ValueError(f"expected 'kraus i' header, got {lines[pos]!r}")
        index = int(header[1])
        if index != terms:
            raise ValueError(f"kraus headers out of order: expected {terms}, got {index}")
        pos += 1
        if len(lines) - pos < dim:
            raise ValueError(f"kraus {index}: expected {dim} rows, file ended early")
        for r in range(dim):
            entries += _complex_row(lines[pos + r], dim, f"kraus {index} row {r}")
        terms += 1
        pos += dim
    if not terms:
        raise ValueError("channel file contains no Kraus operators")
    return KrausChannel(np.array(entries).reshape(terms, dim, dim), family="custom")


def load_channel(path: str | Path) -> KrausChannel:
    return parse_channel_text(Path(path).read_text())


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def channel_to_text(ch: KrausChannel) -> str:
    lines = [f"dim {ch.dim}"]
    for i, op in enumerate(ch.kraus_ops):
        lines.append(f"kraus {i}")
        for row in op:
            lines.append(" ".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def save_channel(ch: KrausChannel, path: str | Path) -> None:
    Path(path).write_text(channel_to_text(ch))


def parse_coefficient_rows(text: str) -> list[np.ndarray]:
    """The coefficient rows of an encoding file, one per code word (lengths may differ)."""
    lines = _content_lines(text)
    if not lines:
        raise ValueError("encoding file holds no coefficient rows")
    return [np.array(_complex_row(line, None, f"row {r}")) for r, line in enumerate(lines)]


def load_coefficient_rows(path: str | Path) -> list[np.ndarray]:
    return parse_coefficient_rows(Path(path).read_text())
