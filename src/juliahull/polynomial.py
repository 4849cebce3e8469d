"""Complex polynomial algebra on exact coefficient vectors.

Coefficients are stored in ascending power order (index j holds the
coefficient of z**j), which makes Horner evaluation a reverse fold over
the array.  ``parse_polynomial`` reads the text form used on the command
line: a coefficient list or a preset.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEGREE_CAP = 4096

# A candidate leading coefficient below this modulus is rejected outright:
# the caller must pass the intended degree, we never trim silently.
_MIN_LEADING = 1e-300


def _coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must form a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    return arr


@dataclass(eq=False)
class Polynomial:
    """p(z) = sum_j coeffs[j] * z**j, degree = len(coeffs) - 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _coeff_array(self.coeffs)
        if arr.size >= 2 and abs(arr[-1]) < _MIN_LEADING:
            raise ValueError(
                "leading coefficient is (numerically) zero; "
                "construct the polynomial with its intended degree"
            )
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        return evaluate(self, z)


@dataclass(eq=False)
class AffineMap:
    """g(z) = a*z + b with a != 0; inverse is z -> (z - b)/a."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        for part in (a.real, a.imag, b.real, b.imag):
            if not np.isfinite(part):
                raise ValueError("affine coefficients must be finite")
        if abs(a) == 0.0:
            raise ValueError("affine map must be invertible (|a| > 0)")
        self.a, self.b = a, b

    def __call__(self, z):
        return self.a * z + self.b

    def inverse(self) -> "AffineMap":
        return AffineMap(1.0 / self.a, -self.b / self.a)

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(1.0, 0.0)


def _horner(coeffs: np.ndarray, z):
    """Evaluate an ascending coefficient vector at z (scalar or array).

    One accumulator is allocated and then updated in place.  A zero
    coefficient is not added: that can only change the sign of a zero
    result.  For a monic vector the accumulator starts as z itself, since
    1*z is z up to the sign of a zero; that saves the fill and one product.
    Its first step writes into a new array, so z is never written, and a
    0-d z stays a 0-d array that numpy's array loops compute, as in the
    filled form.  Any other leading coefficient is filled first and
    multiplied as ``acc *= z``: numpy's vectorized complex multiply need not
    give ``z * a`` the same bits as ``full(a) * z``.
    """
    rest = coeffs[-2::-1]
    if coeffs[-1] == 1 and rest.size:
        acc, rest = z, rest[1:]
        out = np.empty_like(z, dtype=np.complex128)
        if coeffs[-2] != 0:
            acc = np.add(z, coeffs[-2], out=out)
    else:
        acc = np.full_like(z, coeffs[-1], dtype=np.complex128)
    for c in rest:
        if acc is z:
            acc = np.multiply(z, z, out=out, dtype=np.complex128)
        else:
            acc *= z
        if c != 0:
            acc += c
    if acc is z:  # p(z) = z
        out[...] = z
        acc = out
    return acc


def evaluate(p: Polynomial, z):
    """Horner evaluation of p at a scalar or ndarray of points."""
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    out = _horner(p.coeffs, arr)
    return complex(out) if arr.ndim == 0 else out


def derivative(p: Polynomial) -> Polynomial:
    """Coefficients j*a_j shifted down one index; degree drops by one."""
    if p.degree < 1:
        raise ValueError("derivative requires degree >= 1")
    j = np.arange(1, p.coeffs.size)
    return Polynomial(p.coeffs[1:] * j)


def compose(outer: Polynomial, inner: Polynomial, max_degree: int = DEGREE_CAP) -> Polynomial:
    """Coefficients of outer(inner(z)).

    The result has degree deg(outer)*deg(inner); anything past
    ``max_degree`` is refused rather than computed.
    """
    if outer.degree * inner.degree > max_degree:
        raise ValueError("degree cap exceeded")
    acc = np.array([outer.coeffs[-1]], dtype=np.complex128)
    for c in outer.coeffs[-2::-1]:
        acc = np.convolve(acc, inner.coeffs)
        acc[0] += c
    return Polynomial(acc)


def conjugate(p: Polynomial, g: AffineMap) -> Polynomial:
    """Return g o p o g^-1 expanded to coefficient form (degree preserved)."""
    inv = Polynomial([-g.b / g.a, 1.0 / g.a])
    out = compose(p, inv).coeffs * g.a
    out[0] += g.b
    return Polynomial(out)


def chebyshev(d: int) -> Polynomial:
    """Degree-d Chebyshev polynomial via T_0 = 1, T_1 = z, T_{n+1} = 2 z T_n - T_{n-1}."""
    if d < 1:
        raise ValueError("chebyshev requires degree d >= 1")
    prev = np.array([1.0 + 0j])
    cur = np.array([0j, 1.0 + 0j])
    for _ in range(d - 1):
        nxt = np.zeros(cur.size + 1, dtype=np.complex128)
        nxt[1:] = 2.0 * cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return Polynomial(cur)


def monomial(c: complex, d: int) -> Polynomial:
    """c * z**d."""
    if d < 1:
        raise ValueError("monomial requires degree d >= 1")
    coeffs = np.zeros(d + 1, dtype=np.complex128)
    coeffs[-1] = c
    return Polynomial(coeffs)


def escape_radius(p: Polynomial) -> float:
    """Radius R with |p(z)| >= 2|z| whenever |z| >= R.

    R = max(1, (2 + sum_{j<d} |a_j|) / |a_d|).  Orbits leaving the disk of
    radius R grow at least geometrically, so they escape, and the preimage
    of the disk stays inside the disk.
    """
    if p.degree < 2:
        raise ValueError("escape radius requires degree >= 2")
    return max(1.0, (2.0 + float(np.abs(p.coeffs[:-1]).sum())) / abs(p.coeffs[-1]))


def format_complex(z: complex) -> str:
    """Render a complex number as 're' or 're+imi' so that it re-parses exactly."""
    re, im = float(np.real(z)), float(np.imag(z))
    if im == 0.0:
        return repr(re)
    sign = "+" if im >= 0 else "-"
    return f"{repr(re)}{sign}{repr(abs(im))}i"


def format_polynomial(p: Polynomial) -> str:
    """Comma-separated ascending coefficient list (round-trips through parsing)."""
    return ",".join(format_complex(c) for c in p.coeffs)


_PRESETS = ("cheb", "negcheb", "monomial", "quad")

_FLOAT_PATTERN = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>{_FLOAT_PATTERN})(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


class ParseError(ValueError):
    """Malformed polynomial text; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


@dataclass(eq=False)
class PolySpec:
    """Parsed CLI polynomial: original text, coefficients, optional preset tag."""

    source: str
    polynomial: Polynomial
    preset: Optional[str] = None


def parse_complex(token: str, column: int = 1) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ParseError(f"malformed complex literal {token!r}", column)
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


def _parse_preset(text: str) -> PolySpec:
    head, _, rest = text.partition(":")
    if head == "quad":
        c = parse_complex(rest, column=len(head) + 2)
        return PolySpec(text, Polynomial([c, 0.0, 1.0]), preset=text)
    if head in ("cheb", "negcheb"):
        if not rest.isdigit():
            raise ParseError(f"preset degree must be an integer, got {rest!r}",
                             len(head) + 2)
        d = int(rest)
        if d < 1:
            raise ParseError("preset degree must be >= 1", len(head) + 2)
        p = chebyshev(d)
        if head == "negcheb":
            p = Polynomial(-p.coeffs)
        return PolySpec(text, p, preset=text)
    # monomial:c,d
    c_text, comma, d_text = rest.rpartition(",")
    if not comma or not d_text.isdigit():
        raise ParseError("monomial preset needs the form monomial:c,d",
                         len(head) + 2)
    c = parse_complex(c_text, column=len(head) + 2)
    d = int(d_text)
    if d < 1 or abs(c) == 0.0:
        raise ParseError("monomial preset needs d >= 1 and c != 0",
                         len(head) + 2)
    return PolySpec(text, monomial(c, d), preset=text)


def parse_polynomial(text: str) -> PolySpec:
    """Parse a coefficient list ('-1,0,2') or a preset ('cheb:3')."""
    if not text:
        raise ParseError("empty polynomial text", 1)
    head = text.split(":", 1)[0]
    if head in _PRESETS:
        return _parse_preset(text)
    coeffs = []
    column = 1
    for token in text.split(","):
        if not token:
            raise ParseError("empty coefficient", column)
        coeffs.append(parse_complex(token, column))
        column += len(token) + 1
    try:
        return PolySpec(text, Polynomial(coeffs))
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None
