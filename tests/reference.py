"""References that tests check the vectorized and blocked program against.

Not a test module: pytest collects only ``test_*.py``, and test modules
import this one by name from the ``tests`` directory.
"""

import numpy as np

from quantvi.quantizer import OutOfRange

_CLAMP_TOL = 1e-12


def locate_level(u, seq):
    """Return (tau, xi): the interval index of u and its relative position.

    l_tau <= u < l_tau+1 with xi = (u - l_tau) / (l_tau+1 - l_tau); the top
    endpoint u = 1 maps to (alpha, 1).  Values within 1e-12 outside [0, 1]
    are clamped; anything further out raises OutOfRange.
    """
    if u < -_CLAMP_TOL or u > 1.0 + _CLAMP_TOL:
        raise OutOfRange(f"normalized coordinate {u} outside [0, 1]")
    u = min(max(float(u), 0.0), 1.0)
    ell = seq.levels
    tau = int(np.searchsorted(ell, u, side="right")) - 1
    if tau == len(ell) - 1:  # u == 1.0
        tau -= 1
    xi = (u - ell[tau]) / (ell[tau + 1] - ell[tau])
    return tau, float(xi)


def whole_matrix_skew_split(rng, B, K, frob):
    """A skew node split (K, d, d) built with whole-matrix operations.

    Draws each node's delta from ``rng``, makes it skew with ``G -= G.T``,
    scales it to Frobenius norm ``frob * sqrt(d)``, centres the K deltas
    with one mean over nodes and adds B: ``vi.make_problem``'s split before
    it was built block by block.
    """
    d = B.shape[0]
    node_B = np.empty((K, d, d))
    for G in node_B:
        rng.standard_normal(out=G)
        G -= G.T
        norm = np.linalg.norm(G)
        if norm > 0:
            G *= frob * np.sqrt(d) / norm
    node_B -= node_B.mean(axis=0)
    node_B += B
    return node_B
