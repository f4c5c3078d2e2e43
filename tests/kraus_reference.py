"""Independent references the tests compare the library against.

The dense Kraus sums, one operator at a time, check the band form: they read
nothing but a (terms, dim, dim) stack, so they share no code with the band
path in ``subchan.channels``. ``poisson_phase_damping`` sums the Poisson Kraus
family of phase damping term by term, independently of the closed-form
multiplier in ``subchan.families``. ``reference_formula`` holds known
closed-form fidelity averages.

``full_band_apply`` is the band form summed over the whole truncation, with
no support window: it reads only a channel's public ``multipliers`` and
``transfer``. ``node_quadrature`` is the Bloch quadrature evaluated node by
node, each state built on its own. ``design_average`` is the Haar average of
a code of any dimension as a finite weighted sum of pure-state fidelities.
``pure_fidelity`` is one Bloch state's fidelity, through ``apply_channel``.
``identity_channel``, ``vec`` and ``unvec`` are small helpers the tests share.
``seesaw_one_start`` is the search's shifted seesaw run on one start alone,
with its own products and a scalar shift rule, against which the lockstep
stack is checked.
``verify_one_sample_at_a_time`` is ``verify_channel`` drawing, applying and
scoring each sample on its own, against which the stacked samples are checked;
its draws, ``random_hermitian`` and ``random_density_matrix``, are the seeded
random inputs the tests share.
``damping_series_bracket`` is the amplitude-damping series of a qubit code
transcribed term by term, a four-term bracket summed over every damping order
and level pair, against which the library's matrix form is checked at d = 2.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.stats import poisson

import subchan.encodings as encodings
from subchan.channels import (
    VERIFY_SAMPLES,
    VERIFY_SEED,
    ChannelVerification,
    KrausChannel,
    apply_channel,
    tp_defect_on_block,
)
from subchan.errors import DimensionMismatchError
from subchan.fidelity import _clip_unit
from subchan.fock import log_binomial, outer
from subchan.tolerances import SPECTRAL_TOL, STRUCTURAL_TOL


def identity_channel(dim):
    """Single-Kraus identity map, a reference point."""
    return KrausChannel(np.eye(dim, dtype=complex)[np.newaxis], family="custom")


def vec(x):
    """Column-stack a matrix into a vector: the convention of ``superoperator_of``."""
    return np.asarray(x).flatten(order="F")


def unvec(v, dim=None):
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    return v.reshape((dim, dim), order="F")


def dense_apply(ops, x):
    """Phi(x) = sum_i E_i x E_i^dag."""
    return sum(e @ x @ e.conj().T for e in ops)


def dense_adjoint(ops, x):
    """Phi*(x) = sum_i E_i^dag x E_i."""
    return sum(e.conj().T @ x @ e for e in ops)


def full_band_apply(ch, x, adjoint=False):
    """Phi(x), or Phi*(x), from the multipliers of a band channel, every product full size.

    Offset 0 comes first, then ascending |o|, then the transfer matrix: the
    order the library sums them in, so wherever its support window drops
    only exact zeros the two results are equal entry for entry.
    """
    n, ms = ch.dim, ch.multipliers
    out = (ms[0].conj() if adjoint else ms[0]) * x if 0 in ms else np.zeros((n, n)) * x
    for o in sorted((o for o in ms if o), key=abs):
        rows = slice(max(0, -o), n - max(0, o))
        cols = slice(rows.start + o, rows.stop + o)
        if adjoint:
            out[cols, cols] += ms[o].conj() * x[rows, rows]
        else:
            out[rows, rows] += ms[o] * x[cols, cols]
    if ch.transfer is not None:
        populations = np.diagonal(x)
        out[np.diag_indices(n)] += (populations @ ch.transfer if adjoint
                                    else ch.transfer @ populations)
    return out


def dense_tp_defect(ops, block=None):
    """Operator norm of sum_i E_i^dag E_i - I on the leading ``block`` levels."""
    block = ops.shape[1] if block is None else block
    gram = sum(e[:, :block].conj().T @ e[:, :block] for e in ops)
    return float(np.linalg.norm(gram - np.eye(block), 2))


def dense_superoperator(ops):
    """sum_i conj(E_i) kron E_i, the column-stacking superoperator.

    Built by realigning the Choi matrix C = sum_i vec(E_i) vec(E_i)^dag, one
    product over all terms: C[(c, a), (d, b)] = sum_i E_i[a, c] conj(E_i[b, d])
    is the coefficient of |a><b| in Phi(|c><d|), which the superoperator holds
    at row b*dim + a, column d*dim + c.
    """
    ops = np.asarray(ops)
    terms, n, _ = ops.shape
    v = ops.transpose(0, 2, 1).reshape(terms, n * n)  # row i is vec(E_i)
    choi = v.T @ v.conj()
    return choi.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def dense_fixed_points(ops, tol):
    """Members of {x : Phi(x) = x}: right singular vectors of S - I with sigma < tol.

    S is :func:`dense_superoperator`; the members are returned as dim x dim
    matrices.
    """
    sup = dense_superoperator(ops)
    n = int(round(np.sqrt(sup.shape[0])))
    _, svals, vh = np.linalg.svd(sup - np.eye(n * n))
    return [row.conj().reshape((n, n), order="F") for row in vh[svals < tol]]


def span_projector(members):
    """sum_k vec(x_k) vec(x_k)^dag: the projector onto the span of orthonormal members."""
    v = np.array([np.asarray(x).reshape(-1) for x in members])
    return v.T @ v.conj()


def node_quadrature(apply, basis, n_theta, n_phi):
    """Bloch average of <psi|Phi(|psi><psi|)|psi>, one node at a time.

    ``apply`` maps an operator x to Phi(x), ``basis`` holds the two code
    words as rows. Gauss-Legendre in u = cos(theta), theta by theta, crossed
    with the uniform periodic rule in phi; each node builds
    cos(theta/2) b_0 + e^{i phi} sin(theta/2) b_1 and reads the image as
    conj(psi) @ image @ psi.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    total = 0.0
    for u, w in zip(nodes, weights):
        theta = float(np.arccos(u))
        for phi in 2 * np.pi * np.arange(n_phi) / n_phi:
            psi = np.cos(theta / 2) * basis[0] + np.exp(1j * phi) * np.sin(theta / 2) * basis[1]
            image = apply(np.outer(psi, psi.conj()))
            total += w * float((np.conj(psi) @ image @ psi).real)
    # (1 / 4pi) * sum_ij w_i (2pi / n_phi) f_ij
    return total / (2 * n_phi)


def design_average(apply, basis):
    """Haar average of <psi|Phi(|psi><psi|)|psi> over the code spanned by the rows of ``basis``.

    ``apply`` maps an operator x to Phi(x). The average is a sum over a
    weighted complex projective 2-design (Klappenecker & Roetteler,
    quant-ph/0502031): the d code words b_j, each of weight 1/(d(d+1)), and
    the 3^(d-1) vectors sum_j w^(k_j) b_j / sqrt(d) with k_0 = 0, k_j in
    {0, 1, 2} and w = exp(2 pi i / 3), each of weight d/((d+1) 3^(d-1)).
    """
    d = basis.shape[0]
    exponents = np.array(list(itertools.product([0], *[range(3)] * (d - 1))))
    phased = np.exp(2j * np.pi / 3 * exponents) @ basis / np.sqrt(d)
    states = [(1 / (d * (d + 1)), b) for b in basis]
    states += [(d / ((d + 1) * len(phased)), psi) for psi in phased]
    total = 0.0
    for weight, psi in states:
        image = apply(np.outer(psi, psi.conj()))
        total += weight * float((np.conj(psi) @ image @ psi).real)
    return total


def reference_formula(family: str, **params) -> float:
    """Known closed-form Bloch averages.

    ``phase-damping`` with (eta, k, s): 2/3 + eta^((k-s)^2) / 3.
    ``amplitude-damping-01`` with eta (levels 0, 1): 1/2 + eta/6 + sqrt(eta)/3.
    """
    if family == "phase-damping":
        eta, k, s = params["eta"], params["k"], params["s"]
        return 2.0 / 3.0 + eta ** ((k - s) ** 2) / 3.0
    if family == "amplitude-damping-01":
        eta = params["eta"]
        return 0.5 + eta / 6.0 + np.sqrt(eta) / 3.0
    raise ValueError(f"unknown reference family {family!r}")


def poisson_phase_damping(eta, dim):
    """Diagonals of the Poisson Kraus family of phase damping, and their defect.

    E_i[k, k] = (k sqrt(-2 ln eta))^i / sqrt(i!) eta^(k^2), evaluated in log
    space. The squared entries at level k follow a Poisson(-2 k^2 ln eta)
    law in i, so terms run until the top level's tail is below 1e-15.
    Returns (diagonals of shape (terms, dim), max_k |1 - sum_i E_i[k, k]^2|):
    the sum's own trace-preservation defect, its missing mass plus its
    rounding, which sizes how far its multiplier can sit from the exact one.
    """
    lam = -2.0 * (dim - 1) ** 2 * math.log(eta)
    terms = int(poisson.isf(1e-15, lam)) + 1 if lam > 0 else 1
    i = np.arange(terms)[:, None]
    k = np.arange(dim)[None, :]
    log_fact = np.cumsum(np.log(np.maximum(np.arange(terms), 1)))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rate = np.log(k * math.sqrt(-2.0 * math.log(eta)))
        log_power = np.where(i == 0, 0.0, i * log_rate)
    diags = np.exp(log_power - 0.5 * log_fact + k * k * math.log(eta))
    return diags, float(np.max(np.abs(1.0 - np.sum(diags**2, axis=0))))


def diagonal_kraus_apply(diags, x):
    """Phi(x) = sum_i E_i x E_i^dag for diagonal E_i = diag(diags[i]), one term at a time."""
    return sum(e[:, None] * x * e.conj()[None, :] for e in diags)


def diagonal_kraus_adjoint(diags, x):
    """Phi*(x) = sum_i E_i^dag x E_i for diagonal E_i = diag(diags[i])."""
    return sum(e.conj()[:, None] * x * e[None, :] for e in diags)


def bloch_state(subspace, theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|psi_0> + e^{i phi} sin(theta/2)|psi_1> on a d=2 subspace."""
    if subspace.d != 2:
        raise ValueError(f"need a d=2 subspace, got d={subspace.d}")
    b0, b1 = subspace.basis
    return np.cos(theta / 2) * b0 + np.exp(1j * phi) * np.sin(theta / 2) * b1


def pure_fidelity(ch, subspace, theta: float, phi: float) -> float:
    """<psi|Phi(|psi><psi|)|psi> for psi = bloch_state(subspace, theta, phi)."""
    if ch.dim != subspace.dim:
        raise DimensionMismatchError(
            f"channel dim {ch.dim} does not match encoding dim {subspace.dim}"
        )
    psi = bloch_state(subspace, theta, phi)
    out = apply_channel(ch, outer(psi, psi))
    val = complex(np.conj(psi) @ out @ psi)
    if abs(val.imag) > STRUCTURAL_TOL:
        raise ArithmeticError(f"fidelity came out non-real: {val}")
    return _clip_unit(val.real)


def _one_ascent_point(k, v):
    """F(P), H and P for P = v v^dag of one (n, 2) isometry v, as ``encodings._ascent_point``."""
    n = v.shape[0]
    p = v @ v.conj().T
    vec_p, vec_pt = p.ravel(), p.T.ravel()
    k_pt = k @ vec_pt
    c = k_pt.reshape(n, n) + (vec_p @ k).reshape(n, n).T
    return float((vec_p @ k_pt).real), c.T + c.conj(), p


class LoneStart(NamedTuple):
    end: np.ndarray     # the isometry the start ended on
    steps: int          # steps taken, undone ones included
    status: str
    undone: int         # shifted steps undone
    values: list        # F after the start and after each accepted step


def seesaw_one_start(k, v):
    """The shifted seesaw from one start, with its own products and scalar shift rule.

    Reads MAX_STEPS, the tolerances and the shift constants from
    ``subchan.encodings`` at call time, so a test that patches them patches
    both routes.
    """
    value, h, p = _one_ascent_point(k, v)
    mu, last, undone, values = 0.0, math.inf, 0, [value]
    for step in range(encodings.MAX_STEPS):
        w, vecs = np.linalg.eigh(h - mu * p if mu > 0 else h)
        nxt = vecs[:, -2:]
        new_value, new_h, new_p = _one_ascent_point(k, nxt)
        gain = new_value - value
        if mu > 0 and gain < -encodings.ROUNDOFF:  # undone; the next step is plain
            undone, mu, last = undone + 1, 0.0, math.inf
            continue
        if gain < -encodings.ROUNDOFF:
            return LoneStart(v, step, encodings.NON_ASCENT, undone, values)
        values.append(new_value)
        if mu > 0 and gain < encodings.SEESAW_TOL:  # kept, but only a plain step converges
            mu, last = 0.0, math.inf
        elif gain < encodings.SEESAW_TOL:
            return LoneStart(nxt, step + 1, encodings.CONVERGED, undone, values)
        else:
            if v.shape[0] > 2 and (mu > 0 or encodings.SLOW_RATIO * last < gain < last):
                r = math.sqrt(min(gain / last, 1.0))
                mu = encodings.SHIFT_FRACTION * (mu + r * (w[-2] - w[-3]))
            last = gain
        v, value, h, p = nxt, new_value, new_h, new_p
    return LoneStart(v, encodings.MAX_STEPS, encodings.STEP_CAP, undone, values)


def _ginibre(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(dim, rng):
    """(A + A^dag) / 2 for a Ginibre A drawn real part first."""
    a = _ginibre(dim, rng)
    return (a + a.conj().T) / 2


def random_density_matrix(dim, rng):
    """Random full-rank mixed state G G^dag / tr for a Ginibre G drawn real part first."""
    g = _ginibre(dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def verify_one_sample_at_a_time(ch, block=None):
    """``verify_channel``'s report from one 2-D ``apply_channel`` per sample.

    Per sample, in this order: a ``random_hermitian`` and a
    ``random_density_matrix``, each supported on the leading ``block`` levels.
    """
    block = ch.dim if block is None else block
    tp = tp_defect_on_block(ch, block)
    rng = np.random.default_rng(VERIFY_SEED)
    herms, eigs = [], []
    for _ in range(VERIFY_SAMPLES):
        h = np.zeros((ch.dim, ch.dim), dtype=complex)
        h[:block, :block] = random_hermitian(block, rng)
        out = apply_channel(ch, h)
        herms.append(np.max(np.abs(out - out.conj().T)))

        x = np.zeros((ch.dim, ch.dim), dtype=complex)
        x[:block, :block] = random_density_matrix(block, rng)
        out = apply_channel(ch, x)
        eigs.append(np.linalg.eigvalsh((out + out.conj().T) / 2).min())
    herm, min_eig = float(np.max(herms)), float(np.min(eigs))
    return ChannelVerification(
        block=block, tp_defect=tp, hermiticity_defect=herm, min_eigenvalue=min_eig,
        samples=VERIFY_SAMPLES, seed=VERIFY_SEED, tp_ok=tp <= SPECTRAL_TOL,
        hermiticity_ok=herm <= STRUCTURAL_TOL, positivity_ok=min_eig >= -SPECTRAL_TOL)


def damping_series_bracket(eta, c, d, loss_exponent="k"):
    """The amplitude-damping series of a qubit code (c_n, d_n) as its term-by-term
    transcription, summed over the damping order k and every level pair (n, m):

        F = (1/6) sum_k (1-eta)^k sum_{n,m >= k} sqrt(C(n,k) C(m,k))
            eta^((n+m-2k)/2) * B_{knm}

    with the bracket

        B = c_n conj(c_m) (d_{m-k} conj(d_{n-k}) + 2 c_{m-k} conj(c_{n-k}))
          + d_n conj(d_m) (c_{m-k} conj(c_{n-k}) + 2 d_{m-k} conj(d_{n-k}))
          + d_n conj(d_{n-k}) conj(c_m) c_{m-k}
          + c_n conj(c_{n-k}) conj(d_m) d_{m-k}.

    "k/2" weighs order k by (1-eta)^(k/2) instead.
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    n_max = max(c.size, d.size)
    c = np.pad(c, (0, n_max - c.size))
    d = np.pad(d, (0, n_max - d.size))

    total = 0.0 + 0.0j
    for k in range(n_max):
        loss = (1.0 - eta) ** (k if loss_exponent == "k" else k / 2)
        if loss == 0.0:
            break
        for n in range(k, n_max):
            for m in range(k, n_max):
                w = np.exp(0.5 * (log_binomial(n, k) + log_binomial(m, k)))
                w *= eta ** ((n + m - 2 * k) / 2)
                bracket = (
                    c[n] * np.conj(c[m]) * (d[m - k] * np.conj(d[n - k])
                                            + 2 * c[m - k] * np.conj(c[n - k]))
                    + d[n] * np.conj(d[m]) * (c[m - k] * np.conj(c[n - k])
                                              + 2 * d[m - k] * np.conj(d[n - k]))
                    + d[n] * np.conj(d[n - k]) * np.conj(c[m]) * c[m - k]
                    + c[n] * np.conj(c[n - k]) * np.conj(d[m]) * d[m - k]
                )
                total += loss * w * bracket
    if abs(total.imag) > SPECTRAL_TOL:
        raise ArithmeticError(f"series fidelity came out non-real: {total}")
    return float(total.real) / 6.0
