"""Independent oracles that the tests compare the library against.

check_generator_relations verifies the gl(d) commutation relations of a GT
basis's generator images; frobenius_schur_montecarlo estimates the
Frobenius-Schur indicator from characters of Haar samples.
"""

import numpy as np
import scipy.sparse as sp

from gapforge.gates import _haar_unitary
from gapforge.irrep import GTBasis, weyl_character
from gapforge.weightlat import Weight


def check_generator_relations(basis: GTBasis, tol: float = 1e-10) -> float:
    """Max violation of [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb over all
    generator pairs; raises AssertionError above tol.  Returns the residual."""
    d = basis.d
    full = basis._full_images
    worst = 0.0
    pairs = list(full.keys())
    for (a, b) in pairs:
        for (c, e) in pairs:
            lhs = full[(a, b)] @ full[(c, e)] - full[(c, e)] @ full[(a, b)]
            rhs = sp.csr_matrix(lhs.shape, dtype=np.complex128)
            if b == c:
                rhs = rhs + full[(a, e)]
            if e == a:
                rhs = rhs - full[(c, b)]
            resid = abs(lhs - rhs).max() if (lhs - rhs).nnz else 0.0
            worst = max(worst, float(resid))
    assert worst <= tol, f"commutation relations violated: {worst:.3e}"
    return worst


def frobenius_schur_montecarlo(weight: Weight, n_samples: int, seed: int) -> float:
    """Monte Carlo estimate of int chi_lambda(g^2) dmu(g) over PU(d)'s cover.

    Converges to the Frobenius-Schur indicator at the usual N^{-1/2} rate;
    used as an independent oracle for the combinatorial indicator.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        g = _haar_unitary(weight.d, rng)
        phases = np.angle(np.linalg.eigvals(g @ g))
        total += weyl_character(weight, phases).real
    return total / n_samples
