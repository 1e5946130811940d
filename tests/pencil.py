"""The pencil reference for weighted harmonic means, shared by the tests.

``harmonic_fnode`` forms A !_t B = B ((1-t)B + tA)^{-1} A node by node with
one linear solve each.  The library evaluates atoms and densities on the
congruence basis of A + B instead, so this is an independent oracle for
both routes.
"""

import numpy as np


def harmonic_fnode(A: np.ndarray, B: np.ndarray):
    """Batched t -> A !_t B over node pairs (t, 1-t); endpoints short-circuit.

    One solve per node and pair.  A and B are d x d matrices or (n, d, d)
    stacks; a call returns (k,) + A.shape, symmetrized.  A singular pencil
    raises numpy's LinAlgError.
    """

    def fnode(t, tc):
        out = np.empty((len(t),) + A.shape)
        at0 = t == 0.0
        at1 = t == 1.0
        mid = ~(at0 | at1)
        out[at0] = A
        out[at1] = B
        if mid.any():
            pencil = np.multiply.outer(tc[mid], B) + np.multiply.outer(t[mid], A)
            x = np.linalg.solve(pencil, np.broadcast_to(A, pencil.shape))
            h = B @ x
            out[mid] = 0.5 * (h + h.swapaxes(-1, -2))
        return out

    fnode.width = A.size
    return fnode
