"""Property-based checks of the product in the orthogonal basis.

The Newton sweep shares one product per unordered pair of frozen factors
between the exact defect and the linearization, which is only
byte-identical to multiplying in the written order if product(p, q) and
product(q, p) agree bitwise.
"""

import numpy as np
import pytest

import tauspec as ts

import oracles

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FAMILIES = [ts.CHEBYSHEV, ts.LEGENDRE]

# Zeros of both signs among magnitudes from 1e-3 to 1, so that the exact
# product is never dominated by underflow.
COEFFICIENT = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 1.0)))


@st.composite
def factors(draw):
    """Coefficients of length 1 to 70, the last ``tail`` of them zero."""
    size = draw(st.integers(1, 70))
    tail = draw(st.integers(0, size - 1))
    coeffs = draw(st.lists(COEFFICIENT, min_size=size - tail, max_size=size - tail))
    return np.array(coeffs + [0.0] * tail)


@pytest.mark.parametrize("family", FAMILIES)
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=factors(), b=factors())
@hypothesis.example(a=np.linspace(-1.0, 1.0, 70), b=np.cos(np.arange(70.0)))
def test_product_is_bitwise_symmetric_and_exact(family, a, b):
    basis = ts.BasisSpec(family, (0.0, 2.5))
    p, q = ts.Series(basis, a), ts.Series(basis, b)
    pq, qp = ts.product(p, q).coeffs, ts.product(q, p).coeffs
    assert pq.tobytes() == qp.tobytes()
    want = np.array([float(c) for c in oracles.recurrence_product_oracle(family, a, b)])
    size = max(pq.size, want.size)
    got = np.zeros(size)
    got[: pq.size] = pq
    exact = np.zeros(size)
    exact[: want.size] = want
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_product_oracles_agree_exactly():
    """The recurrence oracle gives the same rationals as product_oracle."""
    rng = np.random.default_rng(41)
    for family in FAMILIES:
        for domain in ((0.0, 1.0), (-3.0, 0.5)):
            for _ in range(15):
                a = rng.standard_normal(rng.integers(1, 9))
                b = rng.standard_normal(rng.integers(1, 9))
                a[rng.integers(0, a.size)] = 0.0
                assert (oracles.recurrence_product_oracle(family, a, b)
                        == oracles.product_oracle(family, domain, a, b))
