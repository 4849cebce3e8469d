"""Simultaneous polynomial root finding.

The solver is Aberth-Ehrlich iteration started from the Newton polygon
of p - t (Bini's rule, ``_initial_points``): each edge puts its starts at
the roots of its two-term polynomial, turned by a small fixed fraction of
their spacing.  The circles they lie on follow the moduli of the roots, so
an affine conjugate of p starts as close to its roots as p does, and the
first edge, which carries the target, starts a binomial fiber such as
c z^d = t two steps from its roots.  Aberth is the only update rule, and
it gets the whole iteration budget.  Its step is w -= p / (p' - p S),
with S = sum over j != i of 1/(w_i - w_j): the textbook N / (1 - N S),
N = p / p', with one complex division.  Where p' - p S vanishes, the
step is Newton's, p / p'; where p' vanishes too, the divisor is
max(1e-300, |p| / (1 + |w|)), so the step stays within 1 + |w|.  A
whole family p(z) = t_m can be solved in one vectorized batch, which is
what the inverse-iteration sampler leans on; a caller that knows better
starts for some members, as the sampler does from the fibers it has
solved, passes them in their place.  What depends on p alone
(the Newton polygon of its a_j, j >= 1, the starts it fixes, p', the
scales of the residual bound and the iteration's pair order) is
built once per coefficient vector, into a ``_Plan`` that a cache of
_PLAN_CACHE_SIZE entries keeps; a sample solves the same p some 26
times.

A quadratic fiber starts from its exact roots instead, in Vieta form
(``_quadratic_roots``), and the same iteration only confirms them.

A member converges when every residual |p(z) - t| meets its bound,
RESIDUAL_TOL times the evaluation scale, and that bound is finite.  Where
sum |a_j| |z|^j overflows, the bound is inf and certifies nothing; such a
member, like one whose residual overflows, reads unconverged, and numpy
is not left to warn of the overflow.  RESIDUAL_TOL is a constant of this
module, not a parameter: the reports show it as config.residual_tol.

Everything here is deterministic: no randomness enters the initial
configuration or the iteration, so identical inputs give identical outputs.
The iteration holds a batch as (d, members), so each numpy call runs along
the long member axis, and it adds each root's Aberth sum column by column
(``_row_sums``).  Every operation acts on each member's own
roots, so a member's roots, residuals and ``ok`` depend on its target and
its starts alone: not on the other members, their order or number, nor
on the chunking.  The preimage-convexity check's batched rejection
rounds rest on this, and so does the sampler's prefix property, with
the sampler's rule that a fiber's starts come only from fibers solved
at earlier steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .polynomial import Polynomial, _horner, derivative, format_complex

# Relative residual bound of a converged member (``_iterate``).
RESIDUAL_TOL = 1e-10
# Aberth steps per solve.  From the Newton-polygon starts, and from those
# the sampler predicts (``julia._StartTable``), every sampler fiber of the
# benchmark polynomials (seed 0) converges within 16 steps,
# of a random degree-24 polynomial within 28, and the fibers of
# 1e-60 z**3 within 2.  The cap leaves room for fibers near multiple
# roots, where Aberth converges only linearly.  A member is frozen at the
# step it passes the bound, so raising the cap leaves every member that
# converged under the lower one bit for bit unchanged.
MAX_ITERATIONS = 400

# Turn of every start off the roots of its edge binomial, as a fraction
# of their spacing 2 pi / (k - i).  For a real polynomial at a real
# target the binomials' roots are a conjugation-symmetric set, as are the
# starts at a fraction of 0 or 1/2, and Aberth keeps such a set symmetric
# up to rounding: a real start stays on the real axis and a conjugate
# pair stays a pair, so where the fiber's real roots do not match, some
# members take hundreds of steps or never converge.  Any other fraction
# breaks the symmetry at every edge length.  A small one keeps binomial
# fibers two steps from their roots; 0.05 takes three.
_START_TURN = 0.03

# Fiber members per solve times d**2.  Each step holds the d(d-1)/2 pair
# reciprocals of every member twice, in two (pairs, m) complex buffers;
# 2**20 keeps the two together near 16 MiB at any degree and splits no
# batch of 2048 fibers below degree 23.
_CHUNK_BUDGET = 2 ** 20

# Solver plans kept (``_plan``).  A suite solves three coefficient vectors,
# p, p' and p(z) - z, p itself about 26 times.
_PLAN_CACHE_SIZE = 8


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


class _Plan(NamedTuple):
    """What the solver needs of one coefficient vector, whatever the targets.

    ``_initial_points`` reads the Newton polygon of the a_j, j >= 1: its
    vertices, log|a_j| and arg a_j at each, ``steps``, the values of
    log|a_0 - t| where j* steps right past a vertex, and ``starts``, the
    starts of the edges right of vertex 0 in slots vertex[0]..d-1, zero
    left of it, or None when the polygon has one vertex.
    ``_iterate`` reads the coefficients of p and p', for its residual
    bound |a_j| with |a_0| zeroed and its floor max_{j >= 1} |a_j|, and
    ``col_order``, which orders the pairs q = (i, j), i < j, from
    by_row order (by i, then j) by j.
    """

    coeffs: np.ndarray
    dcoeffs: np.ndarray
    abs_coeffs: np.ndarray
    coeff_max: float
    vertex: np.ndarray
    logs: np.ndarray
    args: np.ndarray
    steps: np.ndarray
    starts: np.ndarray | None
    col_order: np.ndarray


def _build_plan(coeffs: np.ndarray) -> _Plan:
    """The ``_Plan`` of a_0..a_d, d >= 2 (Bini's rule, ``_initial_points``)."""
    d = coeffs.size - 1
    logs = np.full(d + 1, -np.inf)
    nonzero = np.flatnonzero(coeffs[1:]) + 1
    logs[nonzero] = np.log(np.abs(coeffs[nonzero]))
    hull: list = []  # upper hull of (j, logs[j]) over the nonzero a_j, j >= 1
    for j in nonzero.tolist():
        while len(hull) >= 2 and ((logs[hull[-1]] - logs[hull[-2]]) * (j - hull[-2])
                                  <= (logs[j] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(j)
    vertex = np.array(hull)
    args = np.angle(coeffs[vertex])
    slope = np.diff(logs[vertex]) / np.diff(vertex)
    starts = None
    if slope.size:
        # slot s of the edge from a to b is its start s - a
        right = np.arange(vertex[0], d)
        edge = np.searchsorted(vertex, right, side="right") - 1
        a, b = vertex[edge], vertex[edge + 1]
        angle = (np.pi + args[edge] - args[edge + 1]
                 + 2.0 * np.pi * (right - a + _START_TURN)) / (b - a)
        starts = np.zeros(d, dtype=np.complex128)
        starts[vertex[0]:] = np.exp(-slope[edge] + 1j * angle)
    abs_coeffs = np.abs(coeffs)
    abs_coeffs[0] = 0.0  # constant term differs per member, added back per solve
    first, second = np.triu_indices(d, 1)  # the pairs in by_row order
    return _Plan(
        coeffs=coeffs, dcoeffs=derivative(Polynomial(coeffs)).coeffs,
        abs_coeffs=abs_coeffs, coeff_max=abs_coeffs[1:].max(),
        vertex=vertex, logs=logs[vertex], args=args,
        steps=logs[vertex[1:]] - slope * vertex[1:], starts=starts,
        col_order=np.lexsort((first, second)))


def _plan(coeffs: np.ndarray) -> _Plan:
    """The ``_Plan`` of a complex coefficient vector, built on its first solve."""
    return _cached_plan(coeffs.tobytes())


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cached_plan(key: bytes) -> _Plan:
    return _build_plan(np.frombuffer(key, dtype=np.complex128))


def _initial_points(plan: _Plan, targets: np.ndarray) -> np.ndarray:
    """Aberth starts for p(z) = t, one row of d per target (Bini's rule).

    The upper convex hull of the points (j, log|a_j|), with a_0 - t for
    a_0, is the Newton polygon.  An edge from i to k puts k - i starts at
    the roots of its two-term polynomial a_i z^i + a_k z^k, on the circle
    of radius (|a_i| / |a_k|)^(1/(k - i)), each turned by _START_TURN of
    their spacing 2 pi / (k - i): slot s of the edge lies at angle
    (arg(-a_i / a_k) + 2 pi (s + _START_TURN)) / (k - i).  When the edge
    is steep, k - i roots of p - t lie near those points.  Only a_0 - t
    differs between targets, and it enters only the first edge, from 0 to
    the vertex j* of the hull of j >= 1 that maximizes
    (log|a_j*| - log|a_0 - t|) / j*.  As log|a_0 - t| grows, j* steps
    right past each vertex where the line from (0, log|a_0 - t|) runs
    along the next hull edge, so one ``searchsorted`` finds it.  The
    polygon of j >= 1 and the circles right of each vertex are built once
    per polynomial, in its ``_Plan``, and the turned unit starts of each
    first edge once per batch, for the vertices some member takes as j*;
    a member's row of those is scaled by its radius and turned by
    arg(-(a_0 - t) / a_j*) / j*.  A target equal to a_0 counts as
    |a_0 - t| = the smallest normal float.
    """
    lift = targets - plan.coeffs[0]  # -(a_0 - t)
    shift = np.log(np.maximum(np.abs(lift), np.finfo(np.float64).tiny))
    star = np.searchsorted(plan.steps, shift, side="right")
    j_star = plan.vertex[star]
    radius = np.exp((shift - plan.logs[star]) / j_star)
    # arg(-(a_0 - t) / a_j*) / j*, up to a multiple of 2 pi / j*, which
    # only permutes the starts of the edge
    turn = (np.angle(lift) - plan.args[star]) / j_star
    # one table row per vertex that some target takes as j*: its turned
    # unit starts in the first j* slots, the fixed edges right of them
    used = np.bincount(star, minlength=plan.vertex.size) > 0
    row = (np.cumsum(used) - 1)[star]
    slot = np.arange(plan.coeffs.size - 1)
    inner = slot < plan.vertex[used][:, None]
    unit = np.exp(2j * np.pi * (slot + _START_TURN) / plan.vertex[used][:, None])
    z = np.take(np.where(inner, unit, 0.0), row, axis=0)
    z *= (radius * np.exp(1j * turn))[:, None]
    if plan.starts is not None:
        z += np.take(np.where(inner, 0.0, plan.starts), row, axis=0)
    return z


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


def _row_sums(by_row, by_col, out):
    """The Aberth sums S_i of every root, added column by column.

    Root i's sum is S_i = sum over j != i of 1/(w_i - w_j); column j holds
    the terms 1/(w_i - w_j) of every i != j, and columns 0..d-1 are added
    in turn into ``out``, the (d, members) accumulator, which starts at
    zero.  ``by_row`` holds 1/(w_i - w_j) for each pair i < j, ordered by
    i, and ``by_col`` the same values ordered by j; both are (pairs,
    members).  Column j takes its entries i < j from ``by_col`` and its
    entries i > j, 1/(w_i - w_j) = -1/(w_j - w_i), from ``by_row``.  That
    negation is exact up to the sign of a zero part: IEEE subtraction is
    sign-symmetric, and so is numpy's complex division (Smith's algorithm),
    because a negated divisor leaves the ratio unchanged and negates the
    scale.  Returns ``out``.
    """
    d = out.shape[0]
    out.fill(0.0)
    for j in range(d):
        if j > 0:  # pairs (i, j), i < j, lie together in by_col
            top = j * (j - 1) // 2
            np.add(out[:j], by_col[top:top + j], out=out[:j])
        if j < d - 1:  # pairs (j, i), i > j, lie together in by_row
            top = j * (2 * d - j - 1) // 2
            np.subtract(out[j + 1:], by_row[top:top + d - 1 - j], out=out[j + 1:])
    return out


def _iterate(plan, targets, z, max_iter):
    """Run Aberth's iteration on z in place; returns (residuals, ok).

    The working set w is laid out as (d, members), so every numpy call runs
    along the long, contiguous member axis.  A root w of target t meets
    its residual bound when |p(w) - t| <= RESIDUAL_TOL * max(S, F), with
    S = |a_0 - t| + sum_{j >= 1} |a_j| |w|^j, the smallest residual double
    precision can certify at a root of that modulus, and the floor
    F = max(|a_0 - t|, max_{j >= 1} |a_j|), which keeps the bound at least
    as strict as RESIDUAL_TOL times the largest coefficient modulus.  The
    per-member terms |a_0 - t| and F are compacted with the working set,
    as the targets are.  Step 0 tests the starts through the transposed
    view of z, so a batch whose starts all pass (every quadratic one)
    returns before anything is copied or any pair buffer is built.

    A member whose residuals all pass a finite bound is frozen: its row of
    z, its residuals and its ``ok`` are written out, and it leaves the
    working set, which is compacted then and not gathered and scattered
    every step.
    Members still working after ``max_iter`` steps are judged at their last
    iterate.

    Each step computes the reciprocal 1/(w_i - w_j) of each pair i < j
    once, into a reused (pairs, members) buffer, copies it in the order
    of the plan's ``col_order``, and ``_row_sums`` adds each root's sum S
    over j in increasing order into one reused (d, members) buffer.  The
    step is then w -= p / (p' - p S), one complex division per root.
    Every operation is elementwise along the member axis, so no bit
    depends on numpy's reduction internals.  Each complex product keeps
    its operand order (``pv * S``): numpy's complex multiply is not
    bitwise commutative.
    """
    m, d = z.shape
    members = np.arange(m)
    w = z.T
    const_shift = np.abs(plan.coeffs[0] - targets)
    floor = np.maximum(plan.coeff_max, const_shift)
    for it in range(max_iter + 1):
        pv = _horner(plan.coeffs, w)
        pv -= targets
        err = np.abs(pv)
        bound = _horner(plan.abs_coeffs, np.abs(w)) + const_shift
        bound = RESIDUAL_TOL * np.maximum(bound, floor)
        # an overflowed bound certifies nothing: inf <= inf holds
        done = ((err <= bound) & (bound < np.inf)).all(axis=0)
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
            pairs = d * (d - 1) // 2
            row_buf = np.empty(pairs * m, dtype=np.complex128)
            col_buf = np.empty(pairs * m, dtype=np.complex128)
            sum_buf = np.empty(d * m, dtype=np.complex128)
        if done.any():
            frozen = members[done]
            z[frozen] = w[:, done].T
            res[frozen] = err[:, done].T
            ok[frozen] = True
            keep = ~done
            members, w, pv, targets, const_shift, floor = (
                members[keep], w[:, keep], pv[:, keep], targets[keep], const_shift[keep],
                floor[keep])
        k = members.size
        by_row = row_buf[:pairs * k].reshape(pairs, k)
        for i in range(d - 1):
            top = i * (2 * d - i - 1) // 2
            np.subtract(w[i], w[i + 1:], out=by_row[top:top + d - 1 - i])
        if not by_row.all():
            # an exact collision w_i == w_j, so |w_i| == |w_j|, gets a
            # deterministic nudge; its two terms have opposite signs, so
            # the pair moves apart
            first = np.triu_indices(d, 1)[0]  # the row i of each pair, in by_row order
            np.copyto(by_row, 1e-12 * (1.0 + np.abs(w))[first], where=by_row == 0)
        np.divide(1.0, by_row, out=by_row)
        # every index is in range; "clip" only skips the buffered bounds check
        by_col = np.take(by_row, plan.col_order, axis=0, mode="clip",
                         out=col_buf[:pairs * k].reshape(pairs, k))
        denom = _row_sums(by_row, by_col, sum_buf[:d * k].reshape(d, k))
        dv = _horner(plan.dcoeffs, w)
        np.multiply(pv, denom, out=denom)
        np.subtract(dv, denom, out=denom)
        if not denom.all():
            # p' - p S == 0: take the Newton step p / p'.  Where p' == 0
            # too, Aberth's step is unbounded; divide by 1e-300, or by
            # |p| / (1 + |w|) if that is larger, so the step stays within
            # 1 + |w| and p of the next iterate does not overflow
            np.copyto(denom, dv, where=denom == 0)
            np.copyto(denom, np.maximum(np.abs(pv) / (1.0 + np.abs(w)), 1e-300),
                      where=denom == 0)
        w -= np.divide(pv, denom, out=pv)


def solve_fibers(p: Polynomial, targets, starts=None):
    """Roots of p(z) = t for every t in ``targets``, in vectorized batches.

    Returns ``(roots, residuals, ok)`` with shapes (m, d), (m, d), (m,).
    ``starts``, if given, is an (m, d) array of Aberth starts, one row per
    target; a row that is not all finite takes the solver's own starts
    (``_initial_points``, or the exact roots at degree 2), as every row
    does without it.  Members are solved in chunks of at most
    _CHUNK_BUDGET // d**2, which bounds the pair buffers of ``_iterate`` at
    high degree.  ``ok[i]`` is True when every residual |p(root) - t| of
    member i meets the backward-stable bound RESIDUAL_TOL * max(largest
    coefficient modulus, per-root evaluation scale), and that bound is
    finite, within MAX_ITERATIONS steps.  Nothing raises here;
    ``preimage_fibers`` does.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    coeffs = p.coeffs
    d = p.degree
    if d < 1:
        raise ValueError("root solving requires degree >= 1")
    if d == 1:
        roots = ((targets - coeffs[0]) / coeffs[1])[:, None]
        return roots, np.zeros_like(targets.real)[:, None], np.ones(targets.size, bool)
    if starts is not None:
        starts = np.asarray(starts, dtype=np.complex128)
        if starts.shape != (targets.size, d):
            raise ValueError("starts must hold one row of d starts per target")
    # members are solved independently, so chunking leaves every bit unchanged
    chunk = max(1, _CHUNK_BUDGET // (d * d))
    if targets.size <= chunk:
        return _solve_batch(p, targets, starts)
    parts = [_solve_batch(p, targets[lo:lo + chunk],
                          None if starts is None else starts[lo:lo + chunk])
             for lo in range(0, targets.size, chunk)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _solve_batch(p: Polynomial, targets: np.ndarray, starts=None):
    """``solve_fibers`` on one chunk of members, for degree >= 2.

    Degree 2 starts from the exact roots, in Vieta form; they meet the
    residual bound, so ``_iterate`` freezes them before any step.  Rows of
    ``starts`` that are all finite replace those of the members they
    belong to, which are then not built.
    """
    plan = _plan(p.coeffs)

    def own(t):
        return (_quadratic_roots(plan.coeffs, t) if p.degree == 2
                else _initial_points(plan, t))

    # an overflow leaves its member unconverged, with a non-finite residual
    # or bound, and numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        if starts is None:
            z = own(targets)
        else:
            z = starts.copy()
            cold = ~np.isfinite(z).all(axis=1)
            if cold.any():
                z[cold] = own(targets[cold])
        res, ok = _iterate(plan, targets, z, MAX_ITERATIONS)
    return z, res, ok


def _solved(p: Polynomial, targets):
    """``solve_fibers`` as (roots, residuals); raises RootSolveError on failure."""
    roots, res, ok = solve_fibers(p, targets)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        target = format_complex(np.atleast_1d(targets)[i])  # targets may be a scalar
        raise RootSolveError(
            f"root iteration did not converge for target {target} "
            f"(worst residual {res[i].max():.3e})",
            best_roots=roots[i], residuals=res[i],
        )
    return roots, res


def preimage_fibers(p: Polynomial, targets) -> np.ndarray:
    """Batched preimages p^{-1}(t) for an array of targets; raises on failure."""
    return _solved(p, targets)[0]


def all_roots(p: Polynomial) -> RootSet:
    """All d roots of p, multiplicity repeated, |p(root)| <= RESIDUAL_TOL * scale."""
    roots, res = _solved(p, np.zeros(1, dtype=np.complex128))
    return RootSet(roots[0], res[0])


def critical_points(p: Polynomial) -> RootSet:
    """The d-1 zeros of p'."""
    if p.degree < 2:
        raise ValueError("critical points require degree >= 2")
    return all_roots(derivative(p))

