"""Guards on the public signatures: tolerances and sample counts are module
constants, not per-call options, so no caller can loosen a check."""

import dataclasses
import importlib
import inspect
import pkgutil

import subchan


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
    assert len(names) > 50


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
    # The support window of the band kernels and the vectorized quadrature
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
