"""Error-free transforms of float64 arrays, and Shewchuk's expansion sum.

``two_sum`` and ``two_product`` return ``(x, y)``: ``x`` the rounded
result and ``y`` its rounding error, so that ``x + y`` is exact.  TwoSum
is Knuth's, exact for every finite sum that does not overflow (``two_sum(a,
-b)`` is a difference).  TwoProduct is Dekker's with Veltkamp's split, as
numpy has no fused multiply-add; it is exact when no operand exceeds
2^996, the product does not overflow, and each nonzero operand is a
multiple of 2^-537, so that no partial product has a bit below 2^-1074.

An expansion is a list of arrays whose sum, per entry, is the value,
nonoverlapping and in increasing order of magnitude, except that any
component may be zero (J. R. Shewchuk, *Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates*, Discrete Comput. Geom.
18, 1997).  Its sign is that of its last nonzero component.
"""
from __future__ import annotations

_SPLITTER = 2.0 ** 27 + 1.0


def two_sum(a, b):
    x = a + b
    b_virtual = x - a
    a_virtual = x - b_virtual
    return x, (a - a_virtual) + (b - b_virtual)


def two_product(a, b):
    x = a * b
    c = _SPLITTER * a
    a_high = c - (c - a)  # a = a_high + a_low, each of at most 26 significant bits
    c = _SPLITTER * b
    b_high = c - (c - b)
    a_low, b_low = a - a_high, b - b_high
    err = ((x - a_high * b_high) - a_low * b_high) - a_high * b_low
    return x, a_low * b_low - err


def expansion_sum(e: list, f: list) -> list:
    """The expansion of sum(e) + sum(f), by Shewchuk's Expansion-Sum.

    Each component of f grows the expansion from its own position on:
    ``len(e) * len(f)`` TwoSums and no zero elimination, so that every
    entry of the arrays takes the same steps.
    """
    h = list(e)
    for i, q in enumerate(f):
        for j in range(i, i + len(e)):
            q, h[j] = two_sum(q, h[j])
        h.append(q)
    return h
