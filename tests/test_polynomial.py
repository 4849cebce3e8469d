import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juliahull import (
    AffineMap,
    Polynomial,
    chebyshev,
    compose,
    conjugate,
    derivative,
    escape_radius,
    evaluate,
    format_complex,
    monomial,
)
from juliahull.polynomial import _horner

finite_complex = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)


def coeff_lists(min_degree=1, max_degree=6):
    return st.lists(finite_complex, min_size=min_degree + 1,
                    max_size=max_degree + 1).filter(lambda c: abs(c[-1]) > 1e-3)


class TestConstruction:
    def test_degree(self):
        assert Polynomial([1, 2, 3]).degree == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Polynomial([complex("nan"), 0, 1])

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            Polynomial([0, complex(np.inf), 1])

    def test_rejects_vanishing_leading_coefficient(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Polynomial([])

    def test_affine_map_must_be_invertible(self):
        with pytest.raises(ValueError):
            AffineMap(0.0, 1.0)


class TestEvaluate:
    def test_constant_term(self, t2):
        assert evaluate(t2, 0.0) == -1.0

    def test_critical_value_of_quadratic(self):
        c = 0.3 - 0.7j
        assert evaluate(Polynomial([c, 0, 1]), 0.0) == c

    def test_chebyshev_identity_at_zero_angle(self):
        # T_3(cos 0) = cos(3*0) = 1
        assert evaluate(chebyshev(3), np.cos(0.0)) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self, t2):
        zs = np.array([0.1 + 0.2j, -1.0, 2.0j])
        out = evaluate(t2, zs)
        assert np.allclose(out, [evaluate(t2, z) for z in zs])

    def test_rejects_nonfinite_point(self, t2):
        with pytest.raises(ValueError):
            evaluate(t2, complex("inf"))


def _fill_horner(coeffs, z):
    """Horner with the leading coefficient filled first, for any coefficients."""
    acc = np.full_like(z, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc *= z
        if c != 0:
            acc += c
    return acc


def _read_only(z):
    z = np.array(z)
    z.flags.writeable = False
    return z


_RNG = np.random.default_rng(3)
_Z = _RNG.normal(size=(7, 11)) + 1j * _RNG.normal(size=(7, 11))


class TestHorner:
    @pytest.mark.parametrize("coeffs", [
        [-1, 0, 1],                          # monic, zero subleading
        [0.3 - 0.2j, 0.5j, 1],               # monic, nonzero subleading
        [0, 0, 0, 1],
        [1, 2, 3, 1],
        [0, 1, 0, 0, 1],
        [0, 1],                              # the identity
        [2, 1],
        [1],
        [-1, 0, 2],                          # non-monic
        [0.1, 0, 0.3 + 0.2j, 0, 1.5 - 0.7j],
        [0.5, 1, -1],
        [3],
    ])
    @pytest.mark.parametrize("z", [
        _Z[0, 0],                            # 0-d
        _Z[0],                               # 1-d
        _Z,                                  # 2-d
        np.abs(_Z[1]),                       # real, as the root solver passes
    ], ids=["0d", "1d", "2d", "real"])
    def test_matches_fill_reference(self, coeffs, z):
        coeffs = np.array(coeffs, dtype=np.complex128)
        z = _read_only(z)  # writing into z would raise
        out = _horner(coeffs, z)
        expected = _fill_horner(coeffs, z)
        assert isinstance(out, np.ndarray) and out.dtype == np.complex128
        assert out.shape == expected.shape
        # == ignores the sign of a zero, the only difference allowed
        assert np.all(out == expected)


class TestDerivative:
    def test_quadratic(self, t2):
        assert np.allclose(derivative(t2).coeffs, [0, 4])

    def test_cubic_monomial(self):
        assert np.allclose(derivative(Polynomial([0, 0, 0, 1])).coeffs, [0, 0, 3])

    def test_second_derivative_is_constant(self, squaring):
        dd = derivative(derivative(squaring))
        assert dd.degree == 0
        assert dd.coeffs[0] == 2.0


class TestCompose:
    def test_square_of_square(self, squaring):
        assert np.allclose(compose(squaring, squaring).coeffs, [0, 0, 0, 0, 1])

    def test_shifted_square(self):
        # (z+1)^2 - 1 = z^2 + 2z
        out = compose(Polynomial([-1, 0, 1]), Polynomial([1, 1]))
        assert np.allclose(out.coeffs, [0, 2, 1])

    def test_chebyshev_nesting(self):
        # recurrence oracle: T_m(T_n) = T_{mn}
        assert np.allclose(compose(chebyshev(2), chebyshev(2)).coeffs,
                           chebyshev(4).coeffs)
        assert np.allclose(compose(chebyshev(3), chebyshev(2)).coeffs,
                           chebyshev(6).coeffs)

    def test_degree_cap(self):
        p = monomial(1.0, 70)
        with pytest.raises(ValueError, match="degree cap exceeded"):
            compose(p, p)

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists(max_degree=3), coeff_lists(max_degree=2), finite_complex)
    def test_compose_evaluates_like_nested_calls(self, outer, inner, z):
        p, q = Polynomial(outer), Polynomial(inner)
        direct = evaluate(compose(p, q), z)
        nested = evaluate(p, evaluate(q, z))
        scale = max(1.0, abs(nested))
        assert abs(direct - nested) <= 1e-10 * scale


class TestConjugate:
    def test_identity_map(self, squaring):
        out = conjugate(squaring, AffineMap.identity())
        assert np.allclose(out.coeffs, squaring.coeffs)

    def test_t2_is_even(self, t2):
        # precomposing with z -> -z leaves an even polynomial unchanged
        out = compose(t2, Polynomial([0, -1]))
        assert np.allclose(out.coeffs, t2.coeffs, atol=1e-14)

    def test_sign_flip_swaps_even_chebyshev_with_its_negation(self, t2):
        # -T_2 is affinely conjugate to T_2 through z -> -z
        neg = Polynomial(-t2.coeffs)
        out = conjugate(neg, AffineMap(-1.0, 0.0))
        assert np.allclose(out.coeffs, t2.coeffs, atol=1e-14)

    def test_degree_preserved(self):
        p = Polynomial([-2, 0, 1])
        out = conjugate(p, AffineMap(2.0, 0.0))
        assert out.degree == 2
        assert out.coeffs[2] == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists(),
           st.floats(0.5, 2.0), st.floats(0, 2 * np.pi),
           st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_round_trip(self, coeffs, mod, arg, bx, by):
        # round-trip error grows like (1 + |b|/|a|)^d eps, so the stated
        # 1e-12 relative bound presumes mild translations
        p = Polynomial(coeffs)
        g = AffineMap(mod * np.exp(1j * arg), complex(bx, by))
        back = conjugate(conjugate(p, g), g.inverse())
        scale = max(float(np.abs(p.coeffs).max()), 1.0)
        assert np.abs(back.coeffs - p.coeffs).max() <= 1e-12 * scale


class TestChebyshev:
    def test_degree_two(self):
        assert np.allclose(chebyshev(2).coeffs, [-1, 0, 2])

    def test_degree_one_is_identity(self):
        assert np.allclose(chebyshev(1).coeffs, [0, 1])

    def test_degree_four_coefficients(self):
        # oracle: residual of T_4(cos t) - cos(4t) vanishes
        p = chebyshev(4)
        t = np.random.default_rng(0).uniform(0, 2 * np.pi, 100)
        resid = np.abs(evaluate(p, np.cos(t).astype(complex)) - np.cos(4 * t))
        assert resid.max() < 1e-12
        assert np.allclose(p.coeffs, [1, 0, -8, 0, 8])

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            chebyshev(0)

    def test_cosine_identity_through_degree_twelve(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(-np.pi, np.pi, 1000)
        for d in range(1, 13):
            vals = evaluate(chebyshev(d), np.cos(t).astype(complex))
            assert np.abs(vals - np.cos(d * t)).max() <= 1e-10


class TestEscapeRadius:
    def test_pure_square(self, squaring):
        assert escape_radius(squaring) == 2.0

    def test_t2(self, t2):
        assert escape_radius(t2) == 1.5

    def test_unit_c_quadratic(self):
        assert escape_radius(Polynomial([0.6 + 0.8j, 0, 1])) == pytest.approx(3.0)

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            escape_radius(Polynomial([0, 1]))

    def test_growth_guarantee_on_the_circle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = int(rng.integers(2, 7))
            p = Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            radius = escape_radius(p)
            z = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, 1000))
            assert np.all(np.abs(evaluate(p, z)) >= 2 * radius - 1e-9)


class TestFormatting:
    def test_real_only(self):
        assert format_complex(2.0) == "2.0"

    def test_negative_imaginary(self):
        assert format_complex(1.5 - 0.25j) == "1.5-0.25i"
