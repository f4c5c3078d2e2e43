"""Dense Kraus-sum references, one operator at a time, for checking the band form.

They read nothing but a (terms, dim, dim) stack, so they share no code with
the band path in ``subchan.channels``.
"""

import numpy as np


def dense_apply(ops, x):
    """Phi(x) = sum_i E_i x E_i^dag."""
    return sum(e @ x @ e.conj().T for e in ops)


def dense_adjoint(ops, x):
    """Phi*(x) = sum_i E_i^dag x E_i."""
    return sum(e.conj().T @ x @ e for e in ops)


def dense_tp_defect(ops, block=None):
    """Operator norm of sum_i E_i^dag E_i - I on the leading ``block`` levels."""
    block = ops.shape[1] if block is None else block
    gram = sum(e[:, :block].conj().T @ e[:, :block] for e in ops)
    return float(np.linalg.norm(gram - np.eye(block), 2))


def dense_superoperator(ops):
    """sum_i conj(E_i) kron E_i, the column-stacking superoperator."""
    return sum(np.kron(e.conj(), e) for e in ops)
