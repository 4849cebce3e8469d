"""Simultaneous polynomial root finding.

The solver is Aberth-Ehrlich iteration started from points equidistributed
on a Cauchy-bound circle; it is the only update rule, and it gets the
whole iteration budget.  A whole family p(z) = t_m can be solved in one
vectorized batch, which is what the inverse-iteration sampler leans on.

A quadratic fiber starts from its exact roots instead, in Vieta form
(``_quadratic_roots``), and the same iteration only confirms them.

Everything here is deterministic: no randomness enters the initial
configuration or the iteration, so identical inputs give identical outputs.
Every operation acts on each member's own row, so a member's roots,
residuals and ``ok`` do not depend on the batch it is solved in: not on
the other members, their order or number, nor on the chunking.  The
sampler's deduplicated burn-in and the preimage-convexity check's batched
rejection rounds rest on this.
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

# Fiber members per solve times d**2.  The solver holds several (m, d, d)
# complex temporaries; 2**20 elements keeps each near 16 MiB at any degree
# and splits no batch of 2048 fibers below degree 23.
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

    The evaluation-scale term is the smallest residual double precision can
    certify at a root of that modulus; the floor keeps the bound at least
    as strict as tol times the largest coefficient modulus.
    """
    scale = _horner(abs_coeffs, np.abs(z)) + const_shift[:, None]
    return tol * np.maximum(scale, floor[:, None])


def _iterate(coeffs, dcoeffs, targets, z, bounds_of, max_iter):
    """Run Aberth's iteration on z in place; returns (residuals, ok).

    ``bounds_of(w, members)`` gives the thresholds of iterates w of the
    members with those row numbers.  A member whose residuals all pass is
    frozen: its row of z, its residuals and its ``ok`` are written out, and
    it leaves the working set, which is compacted then and not gathered and
    scattered every step.  Members still working after ``max_iter`` steps
    are judged at their last iterate.  The per-step temporaries are reused
    in place, and each complex product keeps its operand order (``newton *
    sum``): numpy's complex multiply is not bitwise commutative.
    """
    m, d = z.shape
    res = np.empty((m, d))
    ok = np.zeros(m, dtype=bool)
    members = np.arange(m)
    w = z  # the working set; a compacted copy after the first freeze
    pair_buf = np.empty((m, d, d), dtype=np.complex128)
    for it in range(max_iter + 1):
        pv = _horner(coeffs, w)
        pv -= targets[:, None]
        err = np.abs(pv)
        done = (err <= bounds_of(w, members)).all(axis=1)
        if it == max_iter or done.all():
            if w is z:  # nothing frozen yet: every row is still in place
                return err, done
            z[members] = w
            res[members] = err
            ok[members] = done
            break
        if done.any():
            frozen = members[done]
            z[frozen] = w[done]
            res[frozen] = err[done]
            ok[frozen] = True
            keep = ~done
            members, w, pv, targets = members[keep], w[keep], pv[keep], targets[keep]
        k = members.size
        # (k, d, d) views of the first k rows stay contiguous, and the
        # diagonal of each d x d block is every (d + 1)-th element of its row
        diff = np.subtract(w[:, :, None], w[:, None, :], out=pair_buf[:k])
        diag = diff.reshape(k, d * d)[:, ::d + 1]
        diag[...] = 1.0
        collided = diff == 0
        if collided.any():
            # an exact off-diagonal collision gets a deterministic nudge,
            # antisymmetric as diff is, so the pair moves apart
            nudge = 1e-12 * (1.0 + np.abs(w))[:, :, None]
            upper = np.triu(np.ones((d, d), dtype=bool), 1)
            np.copyto(diff, np.where(upper, nudge, -nudge), where=collided)
        dv = _horner(dcoeffs, w)
        dv[dv == 0] = 1e-300
        newton = np.divide(pv, dv, out=pv)
        inv = np.divide(1.0, diff, out=diff)
        diag[...] = 0.0
        denom = inv.sum(axis=2)
        np.multiply(newton, denom, out=denom)
        np.subtract(1.0, denom, out=denom)
        denom[denom == 0] = 1.0
        w -= np.divide(newton, denom, out=newton)
    return res, ok


def solve_fibers(p: Polynomial, targets, tol: float = DEFAULT_TOL,
                 max_iter: int = MAX_ITERATIONS):
    """Roots of p(z) = t for every t in ``targets``, in vectorized batches.

    Returns ``(roots, residuals, ok)`` with shapes (m, d), (m, d), (m,).
    Members are solved in chunks of at most _CHUNK_BUDGET // d**2, which
    bounds memory at high degree.  ``ok[i]`` is True when every residual
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
