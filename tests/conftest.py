import pytest

from spectral_fractal.quasiprod import full_spectrum
from spectral_fractal.triples import affine_pair, hadamard_triple


@pytest.fixture(scope="session")
def jp_triple():
    # scaled one-fourth Cantor system: the classic integer-spectrum example
    return hadamard_triple([[4]], [(0,), (2,)], [(0,), (1,)])


@pytest.fixture(scope="session")
def skew_triple():
    # 2D system with a skew expanding matrix and a nonempty periodic zero set
    return hadamard_triple(
        [[4, 0], [1, 2]],
        [(0, 0), (0, 3), (1, 0), (1, 3)],
        [(0, 0), (2, 0), (0, 1), (2, 1)],
    )


@pytest.fixture(scope="session")
def skew_report(skew_triple):
    # the full pipeline on skew takes seconds; shared by every module
    return full_spectrum(skew_triple)


@pytest.fixture(scope="session")
def lebesgue_triple():
    # binary digits fill [0,1]; the measure is Lebesgue on the unit interval
    return hadamard_triple([[2]], [(0,), (1,)], [(0,), (1,)])


@pytest.fixture(scope="session")
def cantor_third_pair():
    # middle-third Cantor digits: no frequency set exists (non-spectral)
    return affine_pair([[3]], [(0,), (2,)])
