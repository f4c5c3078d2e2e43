"""Command-line frontend.

Subcommands: fidelity, hull-check, fixed-points, optimize, sweep, verify,
pairs.
All math routes through the library; this layer only parses flags, builds
channels and encodings, and formats output. Human-readable summaries go to
stdout; machine CSV is written only when --out is given, with fixed 12
significant-digit formatting and no timestamps so identical flags give
byte-identical files.

Exit codes: 0 success, 1 domain error (bad parameter ranges, unreadable
files, resource guards), 2 usage error (unknown subcommand or flags).

An optional --config FILE supplies flat key=value defaults mirroring flag
names; explicit flags override file values. SUBCHAN_SEED in the environment
seeds `optimize` when --seed is absent.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter

import numpy as np

from .channels import MAX_SUPEROPERATOR_DIM, KrausChannel, apply_channel, verify_channel
from .encodings import (
    CONVERGED,
    DEFAULT_RESTARTS,
    NON_ASCENT,
    STEP_CAP,
    contiguous_pair_sweep,
    encoding_from_coefficients,
    leading_ties,
    optimize_encoding,
)
from .errors import (
    ConstraintError,
    DimensionMismatchError,
    PrecisionLossError,
    ResourceLimitError,
    SupportError,
)
from .families import amplitude_damping, depolarizing, phase_damping
from .fidelity import QUADRATURE_NODES, average_fidelity_closed, average_fidelity_quadrature
from .fileio import load_channel, load_coefficient_rows
from .fock import hs_norm
from .subspaces import Subspace, fixed_point_space, invariant_hull_check
from .tolerances import FIXED_POINT_TOL, TIE_TOL

DEFAULT_DIM = 32
DEFAULT_STEPS = 11

CHANNEL_ALIASES = {
    "pd": "pd", "phase-damping": "pd",
    "ad": "ad", "amplitude-damping": "ad",
    "dep": "dep", "depolarizing": "dep",
    "custom": "custom",
}

_CONFIG_CONVERTERS = {
    "channel": str, "eta": float, "p": float, "dim": int,
    "kraus-file": str, "levels": str, "encoding-file": str, "out": str,
    "eta-start": float, "eta-end": float, "steps": int, "restarts": int,
    "seed": int, "max-level": int, "block": int, "tol": float,
    "n-theta": int, "n-phi": int, "quadrature": None,
}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_coefficient(z: complex) -> str:
    """A unit-vector coefficient to 12 decimal places: 1, -0.5, 0.6-0.8j."""
    re, im = (round(float(part), 12) + 0.0 for part in (z.real, z.imag))
    return _fmt(re) if im == 0.0 else format(complex(re, im), ".12g")


def _fmt_tol(x: float) -> str:
    """A one-digit tolerance with its exponent unpadded: 1e-08 -> 1e-8."""
    mantissa, _, exponent = format(x, ".0e").partition("e")
    return f"{mantissa}e{int(exponent)}"


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _load_config(path: str) -> dict[str, str]:
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _merge_config(args: argparse.Namespace, config: dict[str, str]) -> None:
    for key, raw in config.items():
        if key not in _CONFIG_CONVERTERS:
            raise ValueError(f"unknown config key {key!r}")
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue  # key belongs to another subcommand
        current = getattr(args, attr)
        if key == "quadrature":
            if current is False:
                setattr(args, attr, _parse_bool(raw))
        elif current is None:
            setattr(args, attr, _CONFIG_CONVERTERS[key](raw))


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", choices=sorted(CHANNEL_ALIASES), default=None,
                        help="channel family: pd, ad, dep, or custom")
    parser.add_argument("--eta", type=float, default=None,
                        help="damping parameter for pd/ad")
    parser.add_argument("--p", type=float, default=None,
                        help="retention probability for dep")
    parser.add_argument("--dim", type=int, default=None,
                        help=f"truncation level (default {DEFAULT_DIM})")
    parser.add_argument("--kraus-file", default=None,
                        help="channel file for --channel custom")
    parser.add_argument("--config", default=None,
                        help="key=value defaults file; flags override it")


def _build_channel(args: argparse.Namespace) -> KrausChannel:
    if args.channel is None:
        raise ValueError("--channel is required")
    if args.channel not in CHANNEL_ALIASES:
        raise ValueError(
            f"unknown channel {args.channel!r}; choose from {sorted(CHANNEL_ALIASES)}"
        )
    tag = CHANNEL_ALIASES[args.channel]
    dim = DEFAULT_DIM if args.dim is None else args.dim
    if tag == "pd":
        if args.eta is None:
            raise ValueError("phase damping needs --eta")
        return phase_damping(args.eta, dim)
    if tag == "ad":
        if args.eta is None:
            raise ValueError("amplitude damping needs --eta")
        return amplitude_damping(args.eta, dim)
    if tag == "dep":
        if args.p is None:
            raise ValueError("depolarizing needs --p")
        return depolarizing(args.p, dim)
    if args.kraus_file is None:
        raise ValueError("--channel custom needs --kraus-file")
    return load_channel(args.kraus_file)


def _parse_levels(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad --levels value {raw!r}; expected e.g. 0,1") from None


def _build_encoding(args: argparse.Namespace, dim: int, want_pair: bool) -> Subspace:
    if getattr(args, "levels", None) and getattr(args, "encoding_file", None):
        raise ValueError("give --levels or --encoding-file, not both")
    if getattr(args, "levels", None):
        levels = _parse_levels(args.levels)
        if want_pair and len(levels) != 2:
            raise ValueError(f"need exactly two levels, got {levels}")
        return Subspace.from_levels(levels, dim)
    if getattr(args, "encoding_file", None):
        c, d = load_coefficient_rows(args.encoding_file)
        return encoding_from_coefficients(c, d, dim, label="file encoding")
    raise ValueError("an encoding is required: --levels k,s or --encoding-file")


def _channel_summary(ch: KrausChannel) -> str:
    param = "p" if ch.family == "depolarizing" else "eta"
    value = "-" if ch.eta is None else _fmt(ch.eta)
    return (
        f"channel: {ch.family} ({param}={value}, dim={ch.dim}, "
        f"kraus_terms={ch.kraus_truncation}, tp_defect={ch.tp_defect:.3e})"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_fidelity(args) -> int:
    ch = _build_channel(args)
    enc = _build_encoding(args, ch.dim, want_pair=True)
    print(_channel_summary(ch))
    print(f"encoding: {enc.label}")
    closed = average_fidelity_closed(ch, enc)
    print(f"average fidelity (closed form): {_fmt(closed.value)}")
    if args.quadrature:
        n_theta = QUADRATURE_NODES if args.n_theta is None else args.n_theta
        n_phi = QUADRATURE_NODES if args.n_phi is None else args.n_phi
        quad = average_fidelity_quadrature(ch, enc, n_theta, n_phi)
        print(f"average fidelity (quadrature):  {_fmt(quad.value)}")
        print(f"cross-check gap: {abs(closed.value - quad.value):.3e}")
    return 0


def _cmd_hull_check(args) -> int:
    ch = _build_channel(args)
    enc = _build_encoding(args, ch.dim, want_pair=False)
    report = invariant_hull_check(ch, enc)
    print(_channel_summary(ch))
    print(f"subspace: {enc.label} (d={enc.d})")
    verdict = "an invariant hull" if report.is_invariant_hull else "not an invariant hull"
    print(f"verdict: {verdict}")
    print(f"max leakage (operator norm): {report.max_leakage:.3e}")
    print(f"max leakage (Hilbert-Schmidt): {report.max_leakage_hs:.3e}")
    print(f"probed inputs: {report.probed_inputs}")
    print(f"restriction trace defect: {report.trace_defect:.3e}")
    print(f"restriction unital defect: {report.unitality_defect:.3e}")
    print(f"unital subchannel: {'yes' if report.is_unital_subchannel else 'no'}")
    return 0


def _cmd_fixed_points(args) -> int:
    ch = _build_channel(args)
    tol = FIXED_POINT_TOL if args.tol is None else args.tol
    members = fixed_point_space(ch, tol=tol)
    print(_channel_summary(ch))
    print(f"fixed-operator subspace dimension: {len(members)} (tol {tol:.0e})")
    for idx, member in enumerate(members):
        residual = hs_norm(apply_channel(ch, member) - member)
        flat = np.abs(member)
        a, b = np.unravel_index(int(flat.argmax()), flat.shape)
        print(
            f"  element {idx}: residual {residual:.3e}, "
            f"dominant entry |{a}><{b}| with weight {_fmt(flat[a, b])}"
        )
    return 0


def _cmd_optimize(args) -> int:
    ch = _build_channel(args)
    if args.levels is None:
        raise ValueError("--levels is required for optimize")
    levels = _parse_levels(args.levels)
    seed = args.seed
    if seed is None and os.environ.get("SUBCHAN_SEED"):
        seed = int(os.environ["SUBCHAN_SEED"])
    restarts = DEFAULT_RESTARTS if args.restarts is None else args.restarts
    result = optimize_encoding(ch, levels, restarts=restarts, seed=seed)
    print(_channel_summary(ch))
    print(f"levels: {','.join(map(str, levels))}  restarts: {result.restarts_run}  "
          f"seed: {'-' if seed is None else seed}")
    print(f"best average fidelity: {_fmt(result.best_fidelity)}")
    ended = Counter(record.status for record in result.history)
    print(f"starts converged: {ended[CONVERGED]} of {result.restarts_run} "
          f"(step cap: {ended[STEP_CAP]}, non-ascent: {ended[NON_ASCENT]})")
    print(f"best code words on levels {','.join(map(str, levels))}:")
    for name, word in zip(("psi0", "psi1"), result.best_params):
        print(f"  {name}: {' '.join(_fmt_coefficient(z) for z in word)}")
    return 0


def _cmd_sweep(args) -> int:
    if args.eta_start is None or args.eta_end is None:
        raise ValueError("sweep needs --eta-start and --eta-end")
    steps = DEFAULT_STEPS if args.steps is None else args.steps
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not 0.0 <= args.eta_start <= args.eta_end <= 1.0:
        raise ValueError(
            f"need 0 <= eta_start <= eta_end <= 1, got {args.eta_start}, {args.eta_end}"
        )
    if CHANNEL_ALIASES.get(args.channel) == "custom":
        raise ValueError("sweep needs a parametric family (pd, ad, or dep)")
    dim = DEFAULT_DIM if args.dim is None else args.dim
    enc = _build_encoding(args, dim, want_pair=True)
    grid = np.linspace(args.eta_start, args.eta_end, steps)
    rows = []
    for eta in grid:
        args.eta = float(eta)
        args.p = float(eta)
        ch = _build_channel(args)
        closed = average_fidelity_closed(ch, enc).value
        quad = average_fidelity_quadrature(ch, enc).value
        rows.append((float(eta), closed, quad, abs(closed - quad), enc.label))
    print(f"eta sweep ({args.channel}, dim={dim}, encoding {enc.label})")
    for eta, closed, quad, gap, _ in rows:
        print(f"  eta={_fmt(eta)}  closed={_fmt(closed)}  quadrature={_fmt(quad)}  "
              f"gap={gap:.3e}")
    if args.out:
        _write_sweep_csv(args.out, rows)
        print(f"wrote {args.out}")
    return 0


def _write_sweep_csv(path: str, rows) -> None:
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    with handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["eta", "fidelity_closed", "fidelity_quadrature", "gap", "encoding"])
        for eta, closed, quad, gap, label in rows:
            writer.writerow([_fmt(eta), _fmt(closed), _fmt(quad), _fmt(gap), label])


def _cmd_verify(args) -> int:
    ch = _build_channel(args)
    report = verify_channel(ch, args.block)
    print(_channel_summary(ch))
    print(f"block: {report.block}  samples: {report.samples}  seed: {report.seed}")
    print(f"trace-preservation defect: {report.tp_defect:.3e} "
          f"({'ok' if report.tp_ok else 'ABOVE TOLERANCE'})")
    print(f"hermiticity defect: {report.hermiticity_defect:.3e} "
          f"({'ok' if report.hermiticity_ok else 'ABOVE TOLERANCE'})")
    print(f"min output eigenvalue: {report.min_eigenvalue:.3e} "
          f"({'ok' if report.positivity_ok else 'BELOW TOLERANCE'})")
    return 0


def _cmd_pairs(args) -> int:
    ch = _build_channel(args)
    max_level = (ch.dim - 1 if args.max_level is None else args.max_level)
    rows = contiguous_pair_sweep(ch, max_level)
    print(_channel_summary(ch))
    print(f"pair sweep up to level {max_level} ({len(rows)} pairs, best first)")
    for row in rows:
        print(f"  ({row.k},{row.s})  {_fmt(row.value)}")
    ties = leading_ties(rows)
    if len(ties) > 1:
        tie_list = " ".join(f"({r.k},{r.s})" for r in ties)
        print(f"tied at the top (within {_fmt_tol(TIE_TOL)}): {tie_list}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subchan",
        description="Bosonic channels on a truncated Fock space: fidelities, "
                    "invariant hulls, fixed points, and encoding search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fid = sub.add_parser("fidelity", help="Bloch-averaged transmission fidelity")
    _add_channel_flags(p_fid)
    p_fid.add_argument("--levels", default=None, help="Fock pair, e.g. 0,1")
    p_fid.add_argument("--encoding-file", default=None)
    p_fid.add_argument("--quadrature", action="store_true",
                       help="also run the quadrature oracle and print the gap")
    p_fid.add_argument("--n-theta", type=int, default=None)
    p_fid.add_argument("--n-phi", type=int, default=None)
    p_fid.set_defaults(func=_cmd_fidelity)

    p_hull = sub.add_parser("hull-check", help="invariant-hull membership of a subspace")
    _add_channel_flags(p_hull)
    p_hull.add_argument("--levels", default=None, help="Fock levels, e.g. 0,1,2")
    p_hull.add_argument("--encoding-file", default=None)
    p_hull.set_defaults(func=_cmd_hull_check)

    p_fix = sub.add_parser(
        "fixed-points", help="basis of the fixed-operator subspace",
        description="Basis of {x : Phi(x) = x}. Band channels (pd, ad, dep, and "
                    "custom channels whose operators each sit on one diagonal) "
                    "take one SVD per coherence order and run to dim 256; other "
                    "channels take the SVD of the dense superoperator, up to "
                    f"dim {MAX_SUPEROPERATOR_DIM}.",
    )
    _add_channel_flags(p_fix)
    p_fix.add_argument(
        "--tol", type=float, default=None,
        help=f"singular-value cutoff (default {_fmt_tol(FIXED_POINT_TOL)})")
    p_fix.set_defaults(func=_cmd_fixed_points)

    p_opt = sub.add_parser(
        "optimize", help="search qubit codes for maximal fidelity",
        description="Seesaw search over qubit codes on the given Fock levels: "
                    "from Haar-random starts, each step moves the code to the top "
                    "two eigenvectors of the fidelity's gradient until the gain "
                    "stops. Prints the best average fidelity, how many starts "
                    "converged, and the best code words' complex coefficients "
                    "on the levels (a Fock pair prints as unit vectors).",
    )
    _add_channel_flags(p_opt)
    p_opt.add_argument("--levels", default=None,
                       help="two or more Fock levels to encode on, e.g. 0,1,2")
    p_opt.add_argument("--restarts", type=int, default=None,
                       help=f"seesaw starts (default {DEFAULT_RESTARTS})")
    p_opt.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to SUBCHAN_SEED)")
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="fidelity across an eta grid, optional CSV")
    _add_channel_flags(p_sweep)
    p_sweep.add_argument("--levels", default=None, help="Fock pair, e.g. 0,1")
    p_sweep.add_argument("--encoding-file", default=None)
    p_sweep.add_argument("--eta-start", type=float, default=None)
    p_sweep.add_argument("--eta-end", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None,
                         help=f"grid points (default {DEFAULT_STEPS})")
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="channel self-checks")
    _add_channel_flags(p_ver)
    p_ver.add_argument("--block", type=int, default=None,
                       help="leading block to check (default: full dim)")
    p_ver.set_defaults(func=_cmd_verify)

    p_pairs = sub.add_parser("pairs", help="fidelity sweep over Fock-pair encodings")
    _add_channel_flags(p_pairs)
    p_pairs.add_argument("--max-level", type=int, default=None)
    p_pairs.set_defaults(func=_cmd_pairs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _merge_config(args, _load_config(args.config))
        return args.func(args)
    except (
        ValueError,
        OSError,
        ConstraintError,
        DimensionMismatchError,
        PrecisionLossError,
        ResourceLimitError,
        SupportError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
