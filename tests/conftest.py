import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# Canonical seed for every fixture that draws random gates.  Golden values in
# the tests below were frozen against this seed; do not change it casually.
SEED = 1729


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def haar_pair_d2():
    from gapforge.gates import haar_random_gateset

    return haar_random_gateset(2, 2, seed=SEED)


@pytest.fixture(scope="session")
def haar_pair_d3():
    from gapforge.gates import haar_random_gateset

    return haar_random_gateset(3, 2, seed=SEED)


@pytest.fixture(scope="session")
def lps_gates():
    """The Lubotzky-Phillips-Sarnak V-gates (I + 2i sigma_a) / sqrt5, a = x, y,
    z, closed under inverses ((I - 2i sigma_a) / sqrt5).  Their averaging
    operator has norm <= 2 sqrt5 / 6 on every j >= 1 (Lubotzky, Phillips and
    Sarnak, Comm. Pure Appl. Math. 39 (1986)), and 1/15, 37/75, 43/75 at
    j = 1, 2, 3."""
    from gapforge.gates import make_gateset

    sigma = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]]),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    pairs = [(f"v{a}", (np.eye(2) + 2j * s) / np.sqrt(5)) for a, s in sigma.items()]
    return make_gateset(2, pairs, symmetric=True)
