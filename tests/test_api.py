"""Guards on the public signatures: tolerances and sample counts are module
constants, not per-call options, so no caller can loosen a check. Beside
them, guards on the source: one size limit read by one size guard, which
every allocation estimate goes through, no unused imports, no private
helper that nothing reads, and no run-time import beyond the declared
dependencies (numpy)."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import subchan
import subchan.channels as channels
from subchan.cli import build_parser
from subchan.encodings import _bloch_form, encoding_from_coefficients, optimize_encoding
from subchan.errors import ResourceLimitError
from subchan.families import _check_dim, amplitude_damping, phase_damping
from subchan.fidelity import average_fidelity_quadrature, level_process_tensor
from subchan.subspaces import Subspace, fixed_point_space, restrict

SOURCES = sorted(Path(subchan.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _public_signatures():
    """Signatures of every public function, method and hand-written constructor.

    Dataclass constructors are left out: their parameters are the fields of a
    record (``ChannelVerification.samples`` reports the sample count), not
    options of a computation.
    """
    modules = [subchan] + [importlib.import_module(f"subchan.{m.name}")
                           for m in pkgutil.iter_modules(subchan.__path__)
                           if m.name != "__main__"]  # importing it runs the CLI
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("subchan"):
                continue
            if inspect.isfunction(obj):
                found[f"{obj.__module__}.{obj.__qualname__}"] = inspect.signature(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    public = not attr.startswith("_") or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj))
                    if public and inspect.isfunction(member):
                        found[f"{obj.__module__}.{member.__qualname__}"] = (
                            inspect.signature(member))
    return found


def test_walk_sees_the_library():
    names = _public_signatures()
    assert "subchan.channels.verify_channel" in names
    assert "subchan.subspaces.RestrictedChannel.apply" in names
    assert "subchan.channels.KrausChannel.__init__" in names
    exported = {f"{obj.__module__}.{obj.__qualname__}" for obj in vars(subchan).values()
                if inspect.isfunction(obj)}
    assert exported <= names.keys()
    assert len(names) >= 50


def test_only_fixed_point_space_takes_a_tolerance():
    with_tol = sorted(name for name, sig in _public_signatures().items()
                      if any("tol" in p for p in sig.parameters))
    assert with_tol == ["subchan.subspaces.fixed_point_space"]


def test_no_sample_tail_rank_or_phase_options():
    removed = {"samples", "tail", "rank", "allow_phases"}
    offenders = sorted(f"{name}({p})" for name, sig in _public_signatures().items()
                       for p in sig.parameters if p in removed)
    assert offenders == []


def test_kernels_and_quadrature_keep_their_parameters():
    # The support window of apply_channel and the vectorized quadrature
    # nodes are internal: neither adds an option.
    signatures = _public_signatures()
    params = {name: list(signatures[f"subchan.{name}"].parameters) for name in (
        "channels.apply_channel", "channels.adjoint_apply",
        "fidelity.average_fidelity_quadrature")}
    assert params == {
        "channels.apply_channel": ["ch", "x"],
        "channels.adjoint_apply": ["ch", "x"],
        "fidelity.average_fidelity_quadrature": ["ch", "subspace", "n_theta", "n_phi"],
    }


def test_damping_series_takes_the_code_words():
    # The series scores a code of any dimension from its words alone; the one
    # option after them is keyword-only.
    sig = _public_signatures()["subchan.fidelity.damping_fidelity_series"]
    assert list(sig.parameters) == ["eta", "words", "loss_exponent"]
    assert sig.parameters["words"].kind is inspect.Parameter.VAR_POSITIONAL
    assert sig.parameters["loss_exponent"].kind is inspect.Parameter.KEYWORD_ONLY


def test_phase_damping_has_no_truncation_option():
    # Phase damping is the exact multiplier: no Kraus truncation is selectable.
    signatures = _public_signatures()
    offenders = sorted(name for name, sig in signatures.items()
                       if "kraus_truncation" in sig.parameters)
    assert offenders == []
    assert list(signatures["subchan.families.phase_damping"].parameters) == ["eta", "dim"]


def test_fidelity_and_search_take_no_code_dimension():
    # The average covers any code dimension through the code itself, and the
    # search is for qubit codes: neither takes a dimension option.
    signatures = _public_signatures()
    params = {name: list(signatures[f"subchan.{name}"].parameters) for name in (
        "fidelity.average_fidelity_closed", "encodings.optimize_encoding")}
    assert params == {
        "fidelity.average_fidelity_closed": ["ch", "subspace"],
        "encodings.optimize_encoding": ["ch", "levels", "restarts", "seed"],
    }


# ---------------------------------------------------------------------------
# One size limit, one size guard
# ---------------------------------------------------------------------------


def _nodes_by_function(tree):
    """(enclosing function name or None, node) for every node of a module."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            yield owner, child
            yield from visit(child, inner)
    return visit(tree, None)


def test_one_limit_read_by_one_guard():
    # Any import, name or attribute that reads MAX_KRAUS_BYTES, and any call
    # that constructs ResourceLimitError (the CLI's except clause only names
    # it), must sit in channels._check_bytes.
    readers, raisers = set(), []
    for path in SOURCES:
        for owner, node in _nodes_by_function(ast.parse(path.read_text())):
            named = getattr(node, "id", None) or getattr(node, "attr", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if named == "MAX_KRAUS_BYTES" and not isinstance(getattr(node, "ctx", None),
                                                            ast.Store):
                readers.add((path.stem, owner))
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "ResourceLimitError":
                raisers.append((path.stem, owner))
    assert readers == {("channels", "_check_bytes")}
    assert raisers == [("channels", "_check_bytes")]


def _guarded_calls():
    """{guard: (call, refused bytes, what the refusal names)}. Everything a call
    needs before its guard is built here, and the limit is lowered one byte
    below the refused bytes, so the guard under test is the first to refuse."""
    pd8, pd32 = phase_damping(0.5, 8), phase_damping(0.5, 32)
    ad8, ad16 = amplitude_damping(0.5, 8), amplitude_damping(0.5, 16)
    # A random unitary spans every offset, so it has no band form.
    rng = np.random.default_rng(4)
    dense4 = channels.KrausChannel(
        np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0])
    full64 = Subspace(dim=64, basis=np.linalg.qr(
        rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2)))[0].T)
    sweep = build_parser().parse_args([
        "sweep", "--channel", "pd", "--eta-start", "0.1", "--eta-end", "0.9",
        "--steps", "1000", "--levels", "0,1", "--dim", "8"])
    return {
        "family": (partial(phase_damping, 0.5, 64), 5 * 64**2 * 8, "phase damping at dim 64"),
        "kraus_ops": (partial(getattr, pd32, "kraus_ops"), 32 * 32**2 * 16,
                      "the dense Kraus stack of 32 terms"),
        "dense products": (partial(channels.apply_channel, dense4, np.zeros((50, 4, 4), complex)),
                           (2 * 50 + 1) * 4**2 * 16, "a dense channel's products"),
        "superoperator": (partial(channels.superoperator_of, ad16), 16**4 * 16,
                          "the superoperator at dim 16"),
        "fixed points": (partial(fixed_point_space, pd32), 32 * 32**2 * 16,
                         "32 fixed points at dim 32"),
        "fixed-point SVD": (partial(fixed_point_space, dense4), 3 * 16**2 * 16,
                            "the SVD of a 16 x 16 superoperator block"),
        "restrict": (partial(restrict, ad16, Subspace.from_levels(range(8), 16)), 8**4 * 16,
                     "the restriction to a 8-dimensional subspace"),
        "level tensor": (partial(level_process_tensor, ad16, range(8)), 8**4 * 16,
                         "the restriction to a 8-dimensional subspace"),
        "quadrature": (partial(average_fidelity_quadrature, pd8, Subspace.from_levels([0, 1], 8)),
                       (16**2 + 4 * 16 * 16) * 16, "a 16 x 16 quadrature grid"),
        "node states": (partial(average_fidelity_quadrature, phase_damping(0.5, 64), full64),
                        (16 * 16 * 64 + 16 * 64**2) * 16, "the node states on a 64-level window"),
        "search": (partial(optimize_encoding, ad8, range(6), restarts=1), 6**4 * 16,
                   "a search on 6 levels"),
        "start stack": (partial(optimize_encoding, ad8, [0, 1], restarts=1000),
                        3 * 1000 * 2**2 * 16, "1000 seesaw starts on 2 levels"),
        "sweep grid": (partial(sweep.func, sweep), 4 * 1000 * 8, "a sweep of 1000 steps"),
        "coefficient rows": (partial(encoding_from_coefficients, *[[1]] * 8, dim=64),
                             8 * 64 * 16, "8 code words at dim 64"),
        "Subspace": (partial(Subspace, dim=64, basis=np.eye(64, dtype=complex)[:8]),
                     (8 * 64 + 8 * 8) * 16, "the Gram matrix of 8 code words at dim 64"),
    }


@pytest.mark.parametrize("guard", sorted(_guarded_calls()))
def test_each_guard_refuses_by_estimate(monkeypatch, guard):
    # Only the one limit is lowered. The guard refuses before the refused
    # bytes are allocated: the call's traced peak stays below them.
    call, nbytes, what = _guarded_calls()[guard]
    monkeypatch.setattr(channels, "MAX_KRAUS_BYTES", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"^{what} needs "):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nbytes - 1


def test_thresholds_at_the_real_limit(monkeypatch):
    # The families and the restriction stop where they did before the guard
    # was shared, and the search, which holds one n^4 array, where the
    # restriction does; the sentinels stand for the allocations a passing
    # estimate leads to.
    class Passed(Exception):
        pass

    def passed(*args):
        raise Passed

    for family, vectors, last in (("phase damping", False, 2590),
                                  ("amplitude damping", True, 2585)):
        _check_dim(family, last, vectors)
        with pytest.raises(ResourceLimitError):
            _check_dim(family, last + 1, vectors)
    monkeypatch.setattr(subchan.encodings, "level_process_tensor", passed)
    monkeypatch.setattr(subchan.subspaces, "apply_channel", passed)
    ch = amplitude_damping(0.5, 65)
    with pytest.raises(Passed):
        optimize_encoding(ch, range(64), restarts=1)
    with pytest.raises(ResourceLimitError, match="a search on 65 levels"):
        optimize_encoding(ch, range(65), restarts=1)
    with pytest.raises(Passed):
        restrict(ch, Subspace.from_levels(range(64), 65))
    with pytest.raises(ResourceLimitError, match="restriction to a 65-dimensional"):
        restrict(ch, Subspace.from_levels(range(65), 65))
    assert 64**4 * 16 == channels.MAX_KRAUS_BYTES  # the superoperator stops at dim 64


def test_bloch_form_holds_one_array_beside_g():
    n = 12
    rng = np.random.default_rng(12)
    g = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
    given = g.copy()
    # K is folded into G's place. Beside it the fold holds one n^3 row of
    # slice pairs and the ufunc buffers of that size, not a second n^4 array.
    tracemalloc.start()
    try:
        k = _bloch_form(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * g.nbytes // n + 4096
    assert np.shares_memory(k, g)
    n2 = n * n
    expect = (given.reshape(n2, n2) + given.transpose(0, 2, 1, 3).reshape(n2, n2)) / 6
    assert np.array_equal(k, expect)


# ---------------------------------------------------------------------------
# Unused imports and private helpers
# ---------------------------------------------------------------------------


def _unused_imports(path):
    """Names a module imports and never reads; ``# noqa: F401`` on the import keeps one."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                getattr(node, "module", None) == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", [p for p in SOURCES + TESTS if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    # The package __init__ imports are its exports.
    assert _unused_imports(path) == []


def test_every_private_helper_has_a_reader():
    # A private function or method of the package that no name or attribute
    # in the package reads has no caller, and is deleted rather than kept.
    defined, read = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and (
                    not node.name.endswith("__")):
                defined.add((path.stem, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(defined) > 40
    assert sorted((module, name) for module, name in defined if name not in read) == []


# ---------------------------------------------------------------------------
# Run-time dependencies
# ---------------------------------------------------------------------------

# The one import made only on demand: ``encodings.minimize``, whose only reader
# is the benchmark tracer until ROADMAP item 1 drops it.
ON_DEMAND = {("encodings", "__getattr__", "scipy")}


def test_runtime_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(subchan.__file__).parents[2] / "pyproject.toml"
    declared = {re.match(r"[\w.-]+", dep).group()
                for dep in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = set()
    for path in SOURCES:
        for owner, node in _nodes_by_function(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.update((path.stem, owner, name.partition(".")[0]) for name in names)
    third_party = {entry for entry in imported
                   if entry[2] not in sys.stdlib_module_names | {"subchan"}}
    assert ON_DEMAND <= third_party
    assert {top for _, _, top in third_party - ON_DEMAND} == declared == {"numpy"}


def test_import_and_a_command_load_no_scipy():
    script = (
        "import sys\n"
        "import subchan, subchan.cli\n"
        "code = subchan.cli.main(['fidelity', '--channel', 'ad', '--eta', '0.5',\n"
        "                         '--dim', '32', '--levels', '0,1'])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(subchan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert "fidelity" in done.stdout
    assert done.stdout.splitlines()[-1] == "0 []"
