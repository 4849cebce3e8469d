"""Simultaneous polynomial root finding.

The solver is Aberth-Ehrlich iteration started from points equidistributed
on a Cauchy-bound circle; it is the only update rule, and it gets the
whole iteration budget.  A whole family p(z) = t_m can be solved in one
vectorized batch, which is what the inverse-iteration sampler leans on.

A quadratic fiber starts from its exact roots instead, in Vieta form
(``_quadratic_roots``), and the same iteration only confirms them.

Everything here is deterministic: no randomness enters the initial
configuration or the iteration, so identical inputs give identical outputs.
The iteration holds a batch as (d, members), so each numpy call runs along
the long member axis, and it adds each root's Aberth sum in a fixed order
written out in ``_sum_plan``.  Every operation acts on each member's own
roots, so a member's roots, residuals and ``ok`` do not depend on the
batch it is solved in: not on the other members, their order or number,
nor on the chunking.  The sampler's deduplicated burn-in and the
preimage-convexity check's batched rejection rounds rest on this.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomial import Polynomial, _horner, derivative

DEFAULT_TOL = 1e-10
# Aberth steps per solve.  Nearly every fiber converges within 200 steps;
# tiny leading coefficients and coefficients spread over many decades need
# more (the fibers of 1e-60 z**3 take up to 280).  A member is frozen at
# the step it passes the bound, so raising the cap leaves every member
# that converged under the lower one bit for bit unchanged.
MAX_ITERATIONS = 400

# Fixed rotation of the initial circle, breaks the symmetry of z**d - c
# style fibers that would otherwise trap the iteration on invariant rays.
_INIT_ROTATION = 0.4

_REPELLING_MARGIN = 1e-9

# Fiber members per solve times d**2.  Each step holds the d(d-1)/2 pair
# reciprocals of every member twice, in two (pairs, m) complex buffers;
# 2**20 keeps the two together near 16 MiB at any degree and splits no
# batch of 2048 fibers below degree 23.
_CHUNK_BUDGET = 2 ** 20


@dataclass(eq=False)
class RootSet:
    """All roots of one polynomial, multiplicity repeated, with residuals |p(root)|."""

    roots: np.ndarray
    residuals: np.ndarray

    def __len__(self) -> int:
        return self.roots.size


class RootSolveError(RuntimeError):
    """Raised when the iteration fails to meet the residual bound."""

    def __init__(self, message: str, best_roots=None, residuals=None):
        super().__init__(message)
        self.best_roots = best_roots
        self.residuals = residuals


class NoRepellingFixedPointError(RuntimeError):
    """All finite fixed points have multiplier modulus <= 1."""


def _initial_points(coeffs: np.ndarray, targets: np.ndarray, d: int) -> np.ndarray:
    lead = abs(coeffs[-1])
    mid = np.abs(coeffs[1:-1]).max() if d >= 2 else 0.0
    radius = 1.0 + np.maximum(mid, np.abs(coeffs[0] - targets)) / lead
    angles = 2.0 * np.pi * np.arange(d) / d + _INIT_ROTATION
    return radius[:, None] * np.exp(1j * angles)[None, :]


def _quadratic_roots(coeffs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Both roots of a_2 z**2 + a_1 z + a_0 = t for every target, as (m, 2).

    With s = -a_1/(2 a_2) and r = sqrt((t - a_0)/a_2 + s**2), the root of
    larger modulus is whichever of s + r and s - r does not cancel; the
    other is the product of the roots, (a_0 - t)/a_2, over it (Vieta).
    """
    a0, a1, a2 = coeffs
    s = -a1 / (2.0 * a2)
    r = np.sqrt((targets - a0) / a2 + s * s)
    big = np.where((np.conj(s) * r).real >= 0, s + r, s - r)
    # big == 0 only when s == r == 0: a double root at 0
    small = np.divide((a0 - targets) / a2, big, out=big.copy(), where=big != 0)
    return np.stack([big, small], axis=1)


def _residual_bounds(abs_coeffs, const_shift, z, tol, floor):
    """Per-root residual thresholds: tol * max(floor, sum_j |a_j| |z|^j).

    z is laid out as (d, members), and ``const_shift`` and ``floor`` hold
    one value per member.  The evaluation-scale term is the smallest
    residual double precision can certify at a root of that modulus; the
    floor keeps the bound at least as strict as tol times the largest
    coefficient modulus.
    """
    scale = _horner(abs_coeffs, np.abs(z)) + const_shift
    return tol * np.maximum(scale, floor)


def _sum_plan(d):
    """The order in which ``_iterate`` adds up the Aberth sums of d roots.

    Root i's sum is S_i = sum over j != i of 1/(w_i - w_j); column j holds
    the terms 1/(w_i - w_j) of every i != j.  Returns ``(count, steps)``:
    a step ``(a, j)`` with j < d adds column j to accumulator a, and a step
    ``(a, d + b)`` adds accumulator b to accumulator a.  The ``count``
    accumulators start at zero, and the sums end in accumulator 0.

    The order is numpy 2.4.6's pairwise summation of one contiguous complex
    row (``pairwise_sum``), so S_i has the bits that ``.sum(axis=-1)``
    gives row i of the d x d matrix with a zero diagonal; skipping that
    zero, like starting from zero, can change only the sign of a zero sum.
    Over a run of n columns:
    - n < 4: the columns are added in sequence;
    - 4 <= n <= 64: column j < 4 floor(n/4) goes to lane j mod 4, the lanes
      are added as ((0 + 1) + (2 + 3)), and the other columns follow in
      sequence;
    - n > 64: the run is split after its first h = (n - n mod 8) / 2
      columns, and the sums of the two halves are added.
    """
    steps = []

    def add(lo, hi, acc):
        # columns lo..hi-1 into accumulator acc; returns the first one unused
        n = hi - lo
        if n < 4:
            steps.extend((acc, j) for j in range(lo, hi))
            return acc + 1
        if n <= 64:
            body = hi - n % 4
            steps.extend((acc + (j - lo) % 4, j) for j in range(lo, body))
            steps.extend([(acc, d + acc + 1), (acc + 2, d + acc + 3),
                          (acc, d + acc + 2)])
            steps.extend((acc, j) for j in range(body, hi))
            return acc + 4
        mid = lo + (n - n % 8) // 2
        right = add(lo, mid, acc)
        unused = add(mid, hi, right)
        steps.append((acc, d + right))
        return unused

    return add(0, d, 0), steps


def _row_sums(steps, by_row, by_col, acc):
    """The Aberth sums S_i of every root, added in the order of ``_sum_plan``.

    ``by_row`` holds 1/(w_i - w_j) for each pair i < j, ordered by i, and
    ``by_col`` the same values ordered by j; both are (pairs, members).
    Column j takes its entries i < j from ``by_col`` and its entries i > j,
    1/(w_i - w_j) = -1/(w_j - w_i), from ``by_row``.  That negation is exact
    up to the sign of a zero part: IEEE subtraction is sign-symmetric, and
    so is numpy's complex division (Smith's algorithm), because a negated
    divisor leaves the ratio unchanged and negates the scale.  ``acc`` is
    the (count, d, members) accumulator buffer; returns the (d, members) sums.
    """
    d = acc.shape[1]
    acc.fill(0.0)
    for a, b in steps:
        out = acc[a]
        if b >= d:
            np.add(out, acc[b - d], out=out)
            continue
        if b > 0:  # pairs (i, b), i < b, lie together in by_col
            top = b * (b - 1) // 2
            np.add(out[:b], by_col[top:top + b], out=out[:b])
        if b < d - 1:  # pairs (b, i), i > b, lie together in by_row
            top = b * (2 * d - b - 1) // 2
            np.subtract(out[b + 1:], by_row[top:top + d - 1 - b],
                        out=out[b + 1:])
    return acc[0]


def _iterate(coeffs, dcoeffs, targets, z, bounds_of, max_iter):
    """Run Aberth's iteration on z in place; returns (residuals, ok).

    The working set w is laid out as (d, members), so every numpy call runs
    along the long, contiguous member axis.  ``bounds_of(w, members)``
    gives the thresholds of the iterates w of the members with those row
    numbers in z.  Step 0 tests the starts through the transposed view of
    z, so a batch whose starts all pass (every quadratic one) returns
    before anything is copied or any pair buffer is built.

    A member whose residuals all pass is frozen: its row of z, its
    residuals and its ``ok`` are written out, and it leaves the working
    set, which is compacted then and not gathered and scattered every step.
    Members still working after ``max_iter`` steps are judged at their last
    iterate.

    Each step computes the reciprocal 1/(w_i - w_j) of each pair i < j
    once, into a reused (pairs, members) buffer, and adds each root's sum
    in the order that ``_sum_plan`` writes out.  That order is the one in
    which numpy's ``.sum(axis=2)`` once added the rows of a (members, d, d)
    pair tensor; every other operation is elementwise, so the iterates
    keep that solver's bits, which no longer depend on numpy's reduction
    internals.  Each complex product keeps its operand order (``newton *
    sum``): numpy's complex multiply is not bitwise commutative.
    """
    m, d = z.shape
    members = np.arange(m)
    w = z.T
    for it in range(max_iter + 1):
        pv = _horner(coeffs, w)
        pv -= targets
        err = np.abs(pv)
        done = (err <= bounds_of(w, members)).all(axis=0)
        if it == max_iter or done.all():
            if it == 0:  # no step taken: z still holds every start
                return err.T, done
            z[members] = w.T
            res[members] = err.T
            ok[members] = done
            return res, ok
        if it == 0:
            res = np.empty((m, d))
            ok = np.zeros(m, dtype=bool)
            w, pv = w.copy(), pv.copy()  # C order: members along each row
            count, steps = _sum_plan(d)
            pairs = d * (d - 1) // 2
            first, second = np.triu_indices(d, 1)  # the pairs in by_row order
            col_order = np.lexsort((first, second))  # the same, ordered by j
            row_buf = np.empty(pairs * m, dtype=np.complex128)
            col_buf = np.empty(pairs * m, dtype=np.complex128)
            acc_buf = np.empty(count * d * m, dtype=np.complex128)
        if done.any():
            frozen = members[done]
            z[frozen] = w[:, done].T
            res[frozen] = err[:, done].T
            ok[frozen] = True
            keep = ~done
            members, w, pv, targets = (members[keep], w[:, keep], pv[:, keep],
                                       targets[keep])
        k = members.size
        by_row = row_buf[:pairs * k].reshape(pairs, k)
        for i in range(d - 1):
            top = i * (2 * d - i - 1) // 2
            np.subtract(w[i], w[i + 1:], out=by_row[top:top + d - 1 - i])
        if not by_row.all():
            # an exact collision w_i == w_j, so |w_i| == |w_j|, gets a
            # deterministic nudge; its two terms have opposite signs, so
            # the pair moves apart
            np.copyto(by_row, 1e-12 * (1.0 + np.abs(w))[first], where=by_row == 0)
        np.divide(1.0, by_row, out=by_row)
        # every index is in range; "clip" only skips the buffered bounds check
        by_col = np.take(by_row, col_order, axis=0, mode="clip",
                         out=col_buf[:pairs * k].reshape(pairs, k))
        denom = _row_sums(steps, by_row, by_col,
                          acc_buf[:count * d * k].reshape(count, d, k))
        dv = _horner(dcoeffs, w)
        dv[dv == 0] = 1e-300
        newton = np.divide(pv, dv, out=pv)
        np.multiply(newton, denom, out=denom)
        np.subtract(1.0, denom, out=denom)
        denom[denom == 0] = 1.0
        w -= np.divide(newton, denom, out=newton)


def solve_fibers(p: Polynomial, targets, tol: float = DEFAULT_TOL,
                 max_iter: int = MAX_ITERATIONS):
    """Roots of p(z) = t for every t in ``targets``, in vectorized batches.

    Returns ``(roots, residuals, ok)`` with shapes (m, d), (m, d), (m,).
    Members are solved in chunks of at most _CHUNK_BUDGET // d**2, which
    bounds the pair buffers of ``_iterate`` at high degree.  ``ok[i]`` is True when every residual
    |p(root) - t| of member i meets the backward-stable bound
    tol * max(largest coefficient modulus, per-root evaluation scale).
    No exception is raised here;
    ``preimage_fibers`` wraps this with the raising behavior.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    coeffs = p.coeffs
    d = p.degree
    if d < 1:
        raise ValueError("root solving requires degree >= 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if d == 1:
        roots = ((targets - coeffs[0]) / coeffs[1])[:, None]
        return roots, np.zeros_like(targets.real)[:, None], np.ones(targets.size, bool)
    # members are solved independently, so chunking leaves every bit unchanged
    chunk = max(1, _CHUNK_BUDGET // (d * d))
    if targets.size <= chunk:
        return _solve_batch(p, targets, tol, max_iter)
    parts = [_solve_batch(p, targets[lo:lo + chunk], tol, max_iter)
             for lo in range(0, targets.size, chunk)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _solve_batch(p: Polynomial, targets: np.ndarray, tol: float, max_iter: int):
    """``solve_fibers`` on one chunk of members, for degree >= 2.

    Degree 2 starts from the exact roots, in Vieta form; they meet the
    residual bound, so ``_iterate`` freezes them before any step.
    """
    coeffs = p.coeffs
    d = p.degree
    const_shift = np.abs(coeffs[0] - targets)
    floor = np.maximum(np.abs(coeffs[1:]).max(), const_shift)
    abs_coeffs = np.abs(coeffs)
    abs_coeffs[0] = 0.0  # constant term differs per member, added back below
    dcoeffs = derivative(p).coeffs

    def bounds_of(z, members):
        return _residual_bounds(abs_coeffs, const_shift[members], z, tol,
                                floor[members])

    z = (_quadratic_roots(coeffs, targets) if d == 2
         else _initial_points(coeffs, targets, d))
    res, ok = _iterate(coeffs, dcoeffs, targets, z, bounds_of, max_iter)
    return z, res, ok


def _solved(p: Polynomial, targets, tol: float, max_iter: int):
    """``solve_fibers`` as (roots, residuals); raises RootSolveError on failure."""
    roots, res, ok = solve_fibers(p, targets, tol, max_iter)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise RootSolveError(
            f"root iteration did not converge for target {targets[i]!r} "
            f"(worst residual {res[i].max():.3e})",
            best_roots=roots[i], residuals=res[i],
        )
    return roots, res


def preimage_fibers(p: Polynomial, targets, tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_ITERATIONS) -> np.ndarray:
    """Batched preimages p^{-1}(t) for an array of targets; raises on failure."""
    return _solved(p, targets, tol, max_iter)[0]


def all_roots(p: Polynomial, tol: float = DEFAULT_TOL,
              max_iter: int = MAX_ITERATIONS) -> RootSet:
    """All d roots of p, multiplicity repeated, residuals |p(root)| <= tol*scale."""
    roots, res = _solved(p, np.zeros(1, dtype=np.complex128), tol, max_iter)
    return RootSet(roots[0], res[0])


def critical_points(p: Polynomial, tol: float = DEFAULT_TOL) -> RootSet:
    """The d-1 zeros of p'."""
    if p.degree < 2:
        raise ValueError("critical points require degree >= 2")
    return all_roots(derivative(p), tol)


def repelling_fixed_point(p: Polynomial, tol: float = DEFAULT_TOL) -> complex:
    """A fixed point z* with |p'(z*)| > 1, of largest multiplier modulus."""
    if p.degree < 2:
        raise ValueError("repelling fixed point requires degree >= 2")
    shifted = p.coeffs.copy()
    shifted[1] -= 1.0
    fixed = all_roots(Polynomial(shifted), tol)
    multipliers = np.abs(_horner(derivative(p).coeffs, fixed.roots))
    repelling = multipliers > 1.0 + _REPELLING_MARGIN
    if not repelling.any():
        raise NoRepellingFixedPointError(
            "no strictly repelling fixed point found"
        )
    candidates = np.flatnonzero(repelling)
    return complex(fixed.roots[candidates[np.argmax(multipliers[candidates])]])
