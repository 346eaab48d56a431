"""Truncated three-variable Taylor arithmetic."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmcsurf.jets import (Jet, _product_table, compose, differentiate, exponent_table, jcos,
                          jcot, jsin, jsqrt, ncoeff, reciprocal)

from conftest import richardson_fd


def seed_jets(alpha, a, abar, order):
    return (Jet.variable(0, alpha, order),
            Jet.variable(1, a, order),
            Jet.variable(2, abar, order))


def sample_expression(al, a, ab, order=3):
    """A composite touching every elementary op the cascade uses."""
    jal, ja, jab = seed_jets(al, a, ab, order)
    return (jsin(jal) * ja ** 2 - jcot(jal) / (ja + 2.0 * jab + 5.0)
            + jsqrt(ja * jab + 4.0))


def expression_scalar(al, a, ab):
    return (np.sin(al) * a ** 2
            - (np.cos(al) / np.sin(al)) / (a + 2.0 * ab + 5.0)
            + np.sqrt(a * ab + 4.0))


def test_coefficient_counts():
    assert ncoeff(0) == 1
    assert ncoeff(1) == 4
    assert ncoeff(4) == 35
    exps = exponent_table(2)
    assert len(exps) == ncoeff(2)
    assert exps[0] == (0, 0, 0)
    assert all(sum(e) <= 2 for e in exps)


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def jets(draw, order=3):
    n = ncoeff(order)
    re = draw(st.lists(finite, min_size=n, max_size=n))
    im = draw(st.lists(finite, min_size=n, max_size=n))
    return Jet(order, np.array(re) + 1j * np.array(im))


def naive_product(j1: Jet, j2: Jet) -> np.ndarray:
    """The Cauchy product summed term by term, in table order, onto zeros."""
    i1, i2, iout = _product_table(j1.order)
    base = np.broadcast_shapes(j1.coeffs.shape[1:], j2.coeffs.shape[1:])
    out = np.zeros((ncoeff(j1.order),) + base, dtype=np.complex128)
    for n1, n2, s in zip(i1, i2, iout):
        # length-1 slices keep numpy's array arithmetic (scalar arithmetic rounds differently)
        out[s:s + 1] += j1.coeffs[n1:n1 + 1] * j2.coeffs[n2:n2 + 1]
    return out


def awkward_jet(rng, order, base=()):
    """Random slots with exact zeros of both signs, so all-zero sums occur."""
    shape = (ncoeff(order),) + base
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c[rng.random(shape) < 0.3] = 0.0
    c.real[rng.random(shape) < 0.2] = -0.0
    c.imag[rng.random(shape) < 0.2] = -0.0
    return Jet(order, c)


@pytest.mark.parametrize("order", range(6))
def test_product_kernel_matches_in_order_accumulation_bitwise(order):
    assert len(_product_table(order)[0]) == math.comb(order + 6, 6)
    rng = np.random.default_rng(order)
    pairs = [(awkward_jet(rng, order, (5,)), awkward_jet(rng, order, (5,))),
             (awkward_jet(rng, order), awkward_jet(rng, order)),
             (awkward_jet(rng, order), awkward_jet(rng, order, (5,))),
             (awkward_jet(rng, order, (5,)), awkward_jet(rng, order)),
             (awkward_jet(rng, order, (3, 1)), awkward_jet(rng, order, (4,)))]
    for j1, j2 in pairs:
        got = (j1 * j2).coeffs
        want = naive_product(j1, j2)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(jets(), jets())
def test_multiplication_commutes(j1, j2):
    np.testing.assert_allclose((j1 * j2).coeffs, (j2 * j1).coeffs, atol=1e-12)


@given(jets(), jets(), jets())
def test_multiplication_associates(j1, j2, j3):
    left = (j1 * j2) * j3
    right = j1 * (j2 * j3)
    np.testing.assert_allclose(left.coeffs, right.coeffs, atol=5e-11)


@given(jets())
def test_swap_is_an_involution(j):
    assert np.array_equal(j.swap_vars().swap_vars().coeffs, j.coeffs)


@given(jets(), jets())
def test_conjugation_distributes_over_products(j1, j2):
    lhs = (j1 * j2).conj_coeffs()
    rhs = j1.conj_coeffs() * j2.conj_coeffs()
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_swap_exchanges_the_two_amplitude_variables():
    ja = Jet.variable(1, 0.7 + 0.2j, order=2)
    jb = Jet.variable(2, 0.7 + 0.2j, order=2)
    assert np.array_equal(ja.swap_vars().coeffs, jb.coeffs)
    jal = Jet.variable(0, 1.3, order=2)
    assert np.array_equal(jal.swap_vars().coeffs, jal.coeffs)


def test_reciprocal_inverts():
    j = sample_expression(1.1, 0.4 + 0.3j, 0.4 - 0.3j)
    prod = j * reciprocal(j)
    expect = np.zeros(ncoeff(3), dtype=np.complex128)
    expect[0] = 1.0
    np.testing.assert_allclose(prod.coeffs, expect, atol=1e-12)


def test_trig_pythagoras_holds_through_every_slot():
    jal = Jet.variable(0, 0.9, order=4)
    one = jsin(jal) ** 2 + jcos(jal) ** 2
    expect = np.zeros(ncoeff(4), dtype=np.complex128)
    expect[0] = 1.0
    np.testing.assert_allclose(one.coeffs, expect, atol=1e-12)


def test_sqrt_squares_back():
    j = Jet.variable(1, 2.0 + 1.0j, order=3) * (0.3 - 0.1j) + 4.0
    r = jsqrt(j)
    np.testing.assert_allclose((r * r).coeffs, j.coeffs, atol=1e-12)


def test_differentiate_matches_stored_partials():
    j = sample_expression(1.1, 0.4 + 0.3j, 0.4 - 0.3j)
    for var in range(3):
        d = differentiate(j, var)
        assert d.order == j.order - 1
        assert d.value() == pytest.approx(j.partial(var), rel=1e-13)


def test_differentiate_requires_positive_order():
    with pytest.raises(ValueError):
        differentiate(Jet.constant(1.0, order=0), 0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Jet.constant(1.0, 2) + Jet.constant(1.0, 3)
    with pytest.raises(ValueError):
        Jet.constant(1.0, 2) ** 0


def test_first_partials_against_finite_differences():
    al, a, ab = 1.1, 0.4 + 0.3j, 0.1 - 0.5j
    j = sample_expression(al, a, ab)
    args = [al, a, ab]
    for var in range(3):
        def f(x, var=var):
            pt = list(args)
            pt[var] = x
            return expression_scalar(*pt)
        fd = richardson_fd(f, args[var])
        assert j.partial(var) == pytest.approx(fd, rel=1e-6)


def test_second_and_third_partials_against_finite_differences():
    # pure-variable higher slots: coefficient of x^k is f^(k)/k!
    al, a, ab = 0.8, 0.6 + 0.2j, 0.5 - 0.4j
    j = sample_expression(al, a, ab)
    from pmcsurf.jets import _index_map
    idx = _index_map(3)

    def f_alpha(x):
        return expression_scalar(x, a, ab)

    d2 = richardson_fd(lambda x: richardson_fd(f_alpha, x, 1e-3), al, 1e-3)
    assert j.coeffs[idx[(2, 0, 0)]] == pytest.approx(d2 / 2.0, rel=1e-5)
    # mixed alpha-a slot via nested differencing
    def f_mixed(x):
        def g(y):
            return expression_scalar(x, y, ab)
        return richardson_fd(g, a, 1e-3)
    dm = richardson_fd(f_mixed, al, 1e-3)
    assert j.coeffs[idx[(1, 1, 0)]] == pytest.approx(dm, rel=1e-5)


def test_cot_jet_matches_finite_differences_of_cot():
    jal = Jet.variable(0, np.pi / 3.0, order=2)
    j = jcot(jal)
    from pmcsurf.jets import _index_map
    idx = _index_map(2)
    cot = lambda x: np.cos(x) / np.sin(x)
    assert j.value() == pytest.approx(cot(np.pi / 3.0), rel=1e-12)
    assert j.partial(0) == pytest.approx(richardson_fd(cot, np.pi / 3.0), rel=1e-6)
    d2 = richardson_fd(lambda x: richardson_fd(cot, x, 1e-3), np.pi / 3.0, 1e-3)
    assert j.coeffs[idx[(2, 0, 0)]] == pytest.approx(d2 / 2.0, rel=1e-6)


def test_array_valued_slots_evaluate_whole_batches():
    al = np.linspace(0.5, 1.5, 7)
    a = np.linspace(-0.5, 0.5, 7) + 0.25j
    j = sample_expression(al, a, np.conj(a))
    assert j.value().shape == (7,)
    np.testing.assert_allclose(j.value(), expression_scalar(al, a, np.conj(a)),
                               rtol=1e-12)


def test_compose_against_exp_series():
    j = Jet.variable(0, 0.3, order=3) * 2.0
    series = [np.exp(0.6) / math.factorial(k) for k in range(4)]
    out = compose(series, j)
    assert out.value() == pytest.approx(np.exp(0.6))
    assert out.partial(0) == pytest.approx(2.0 * np.exp(0.6), rel=1e-12)
