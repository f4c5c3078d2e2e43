"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -rA` (or -s) to see the lines.
Tolerances are pinned in the assertions; nothing here adapts at runtime.
"""

import functools
import math
import time

import numpy as np

from subchan.channels import apply_channel
from subchan.encodings import contiguous_pair_sweep, optimize_encoding
from subchan.families import (
    amplitude_damping,
    amplitude_damping_closed,
    coherent_action_closed,
    depolarizing,
    phase_damping,
    phase_damping_closed,
)
from subchan.fidelity import (
    average_fidelity_closed,
    average_fidelity_quadrature,
    damping_fidelity_series,
)
from subchan.fock import basis_operator, coherent_state, outer
from subchan.subspaces import (
    Subspace,
    cat_state_subspace,
    fixed_point_space,
    invariant_hull_check,
    subspace_overlap,
    unitality_check,
)

PD_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
PD_PAIRS = ((0, 1), (1, 2), (0, 2), (2, 5))
AD_GRID = [i / 10 for i in range(11)]


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} [FAIL] {desc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num:02d} [PASS] {desc} ({elapsed:.2f}s)")
        return wrapper
    return decorate


@criterion(1, "phase-damping average fidelity matches 2/3 + eta^((k-s)^2)/3 to 1e-9")
def test_criterion_01_phase_damping_fidelity():
    for eta in PD_ETAS:
        ch = phase_damping(eta, 32)
        for k, s in PD_PAIRS:
            value = average_fidelity_closed(ch, Subspace.from_levels([k, s], 32)).value
            expected = 2 / 3 + eta ** ((k - s) ** 2) / 3
            assert abs(value - expected) <= 1e-9, (eta, k, s, value, expected)


@criterion(2, "amplitude-damping average fidelity matches 1/2 + eta/6 + sqrt(eta)/3 to 1e-9")
def test_criterion_02_amplitude_damping_fidelity():
    sub = Subspace.from_levels([0, 1], 32)
    for eta in AD_GRID:
        value = average_fidelity_closed(amplitude_damping(eta, 32), sub).value
        expected = 0.5 + eta / 6 + math.sqrt(eta) / 3
        assert abs(value - expected) <= 1e-9, (eta, value, expected)


@criterion(3, "closed-form actions match full Kraus application entrywise to 1e-10")
def test_criterion_03_closed_form_kraus_equivalence():
    for eta in (0.1, 0.5, 0.9):
        pd = phase_damping(eta, 32)
        ad = amplitude_damping(eta, 32)
        for k in range(12):
            for s in range(12):
                unit = basis_operator(k, s, 32)
                via_kraus = apply_channel(pd, unit)
                closed = phase_damping_closed(eta, k, s) * unit
                assert np.max(np.abs(via_kraus - closed)) <= 1e-10, ("pd", eta, k, s)

                via_kraus = apply_channel(ad, unit)
                if k <= s:
                    closed = amplitude_damping_closed(eta, k, s, 32)
                else:
                    closed = amplitude_damping_closed(eta, s, k, 32).conj().T
                assert np.max(np.abs(via_kraus - closed)) <= 1e-10, ("ad", eta, k, s)


@criterion(4, "quadrature oracle agrees with the moment contraction to 1e-10")
def test_criterion_04_oracle_agreement():
    for eta in PD_ETAS:
        ch = phase_damping(eta, 32)
        for k, s in PD_PAIRS:
            sub = Subspace.from_levels([k, s], 32)
            closed = average_fidelity_closed(ch, sub).value
            quad = average_fidelity_quadrature(ch, sub, 16, 16).value
            assert abs(closed - quad) <= 1e-10, ("pd", eta, k, s)
    sub = Subspace.from_levels([0, 1], 32)
    for eta in AD_GRID:
        ch = amplitude_damping(eta, 32)
        closed = average_fidelity_closed(ch, sub).value
        quad = average_fidelity_quadrature(ch, sub, 16, 16).value
        assert abs(closed - quad) <= 1e-10, ("ad", eta)


@criterion(5, "fixed-point spaces: amplitude damping is vacuum-only, phase damping is diagonal")
def test_criterion_05_fixed_points():
    members = fixed_point_space(amplitude_damping(0.3, 16))
    assert len(members) == 1
    vacuum = basis_operator(0, 0, 16)
    overlap = abs(np.trace(vacuum.conj().T @ members[0])) ** 2
    assert overlap >= 1 - 1e-8

    members = fixed_point_space(phase_damping(0.5, 8))
    assert len(members) == 8
    for x in members:
        diag_weight = float(np.sum(np.abs(np.diag(x)) ** 2))
        assert diag_weight >= 1 - 1e-8  # lies in span{|k><k|}


@criterion(6, "invariant-hull verdicts across the channel zoo")
def test_criterion_06_hull_verdicts():
    eta = 0.5
    pd = phase_damping(eta, 16)
    assert invariant_hull_check(pd, Subspace.from_levels([2, 7], 16)).is_invariant_hull

    ad = amplitude_damping(eta, 16)
    for d in (2, 3, 4):
        report = invariant_hull_check(ad, Subspace.from_levels(range(d), 16))
        assert report.is_invariant_hull, d

    shifted = invariant_hull_check(ad, Subspace.from_levels([1, 2], 16))
    assert not shifted.is_invariant_hull
    assert shifted.max_leakage >= (1 - eta) - 1e-9

    dep = depolarizing(0.5, 4)
    for levels in ([0], [0, 1], [0, 1, 2]):
        assert not invariant_hull_check(dep, Subspace.from_levels(levels, 4)).is_invariant_hull

    cat = cat_state_subspace(1.0, 32)
    assert not invariant_hull_check(amplitude_damping(eta, 32), cat).is_invariant_hull


@criterion(7, "phase-damping qubit restrictions pass the adjoint-projector identity; "
              "amplitude damping on span{0,1} is never unital")
def test_criterion_07_unitality():
    pd = phase_damping(0.5, 16)
    for k, s in ((0, 1), (2, 7), (3, 11)):
        report = unitality_check(pd, Subspace.from_levels([k, s], 16))
        assert report.trace_defect <= 1e-9, (k, s)
        assert report.unital_defect <= 1e-9, (k, s)
    sub = Subspace.from_levels([0, 1], 16)
    for eta in [i / 10 for i in range(1, 10)]:
        report = unitality_check(amplitude_damping(eta, 16), sub)
        assert not report.is_unital, eta
        assert report.unital_defect > 1e-9, eta


@criterion(8, "optimizer recovers the two-lowest-level encoding and its bound")
def test_criterion_08_optimizer_recovery():
    span01 = Subspace.from_levels([0, 1], 16)
    for eta in (0.25, 0.5, 0.75):
        ch = amplitude_damping(eta, 16)
        expected = 0.5 + eta / 6 + math.sqrt(eta) / 3
        result = optimize_encoding(ch, [0, 1, 2], restarts=20, seed=2024)
        assert abs(result.best_fidelity - expected) <= 1e-6, eta
        assert subspace_overlap(result.best_encoding, span01) >= 1 - 1e-6, eta

        wider = optimize_encoding(ch, [0, 1, 2, 3], restarts=20, seed=2024)
        assert wider.best_fidelity <= expected + 1e-6, eta


@criterion(9, "contiguous level pairs strictly dominate the phase-damping sweep")
def test_criterion_09_contiguity():
    rows = contiguous_pair_sweep(phase_damping(0.5, 16), 9)
    adjacent = [r.value for r in rows if r.s - r.k == 1]
    separated = [r.value for r in rows if r.s - r.k >= 2]
    assert min(adjacent) > max(separated)


@criterion(10, "coherent-state transport matches the closed form to 1e-7")
def test_criterion_10_coherent_covariance():
    eta, dim = 0.5, 32
    ch = amplitude_damping(eta, dim)
    for alpha, beta in ((1, 1), (1, -1), (0.5, 0.5j)):
        ket_a, _ = coherent_state(alpha, dim)
        ket_b, _ = coherent_state(beta, dim)
        via_kraus = apply_channel(ch, outer(ket_a, ket_b))
        closed = coherent_action_closed(eta, alpha, beta, dim)
        assert np.max(np.abs(via_kraus - closed)) <= 1e-7, (alpha, beta)
    # Diagonal special case: a coherent state maps to a coherent state.
    root_ket, _ = coherent_state(math.sqrt(eta) * 1.0, dim)
    closed = coherent_action_closed(eta, 1.0, 1.0, dim)
    assert np.max(np.abs(closed - outer(root_ket, root_ket))) <= 1e-12


@criterion(11, "series transcription with loss exponent k matches the oracle; "
               "the halved exponent is refuted, not assumed")
def test_criterion_11_series_audit():
    dim = 16
    c = np.zeros(dim)
    d = np.zeros(dim)
    c[0] = 1.0
    d[1] = 1.0
    sub = Subspace.from_levels([0, 1], dim)
    halved_gap = 0.0
    for eta in AD_GRID:
        oracle = average_fidelity_quadrature(amplitude_damping(eta, dim), sub).value
        series = damping_fidelity_series(eta, c, d, loss_exponent="k")
        assert abs(series - oracle) <= 1e-9, eta
        halved = damping_fidelity_series(eta, c, d, loss_exponent="k/2")
        halved_gap = max(halved_gap, abs(halved - oracle))
    assert halved_gap > 1e-3  # the halved variant demonstrably disagrees
