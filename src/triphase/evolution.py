"""Classical RK4 evolution in the state and eight-vector pictures.

A schedule is a sequence of (hamiltonian, duration) segments; a
hamiltonian is a HamiltonianCoeffs or a callable giving a stack of them
(see Schedule), as the geodesic family needs.

State picture:        i dpsi/ds = H(s) psi      (renormalized each step)
Eight-vector picture: dn/ds = 2 h(s) ^ n        (no renormalization)

Both run one fixed-step classical Runge-Kutta walk for the real linear ODE
dx/ds = A(s) x; the step divides each segment duration exactly.  In the
eight-vector picture x = n and A = 2 F.h.  In the state picture x is the
real 6-vector psi.view(float) = (re0, im0, re1, im1, re2, im2) and A the
real 6x6 form of -iH; the recorded psi is a complex view of the walked
rows.  Either A comes from one GEMM of the coefficient rows against a
constant table (_two_term_sum).  On a constant segment one RK4 step is
x -> P x, with P = I + a(I + a/2(I + a/3(I + a/4))) and a = h A; the walk
forms P once and reaches every step by repeated squaring.  A callable
segment runs in blocks of steps: one call of its callable gives every
stage Hamiltonian of a block, its operator stack holds the edge operators
and then the midpoint ones, one batched RK4 step of the identity gives
each step's P_k, and a prefix scan over a tree of the steps gives the
states P_k ... P_1 x.  No loop runs over steps.  Every step is linear, so
the state picture renormalizes the states of a segment or block, and
takes their dynamical-phase trapezoids, in one pass after it.
A schedule may take at most MAX_STEPS steps in total.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geodesics, states, su3
from .errors import InvalidStep, OutOfRange
from .phases import PhaseResult, principal_branch


# A dataclass, not a NamedTuple, for the segment checks of __post_init__.
@dataclass(frozen=True)
class Schedule:
    """Piecewise evolution plan: tuple of (hamiltonian, duration) segments.

    A hamiltonian is a HamiltonianCoeffs, constant over its segment, or a
    callable that maps a 1-D array of k parameters, measured from the
    segment start, to one HamiltonianCoeffs with h0 of shape (k,) and h of
    shape (k, 8), as geodesics.geodesic_hamiltonian_family does.  The walk
    calls it once per block of steps, on the block's start and each step's
    middle and end, in increasing order.  An h or h0 of another shape, a
    scalar h0 among them, raises ValueError before the block's RK4 steps;
    a constant segment that is not a HamiltonianCoeffs with a scalar h0
    and h of shape (8,) raises ValueError here.
    """

    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise OutOfRange("schedule needs at least one segment")
        for hamiltonian, duration in self.segments:
            if not (np.isfinite(duration) and duration > 0.0):
                raise OutOfRange(f"segment duration {duration!r} must be positive")
            if callable(hamiltonian):
                continue
            if not isinstance(hamiltonian, geodesics.HamiltonianCoeffs):
                kind = type(hamiltonian).__name__
                raise ValueError(f"a constant segment is a {kind}, expected HamiltonianCoeffs")
            shapes = np.shape(hamiltonian.h0), np.shape(hamiltonian.h)
            if shapes != ((), (8,)):
                message = "a constant segment has h0, h of shapes {}, {}, expected (), (8,)"
                raise ValueError(message.format(*shapes))

    @property
    def total_duration(self):
        return float(sum(duration for _, duration in self.segments))


MAX_STEPS = 10**6
"""Work budget: the most RK4 steps one schedule may take at a given step."""


def _step_counts(schedule, step):
    """Steps per segment, each dividing its segment's duration exactly.

    Raises InvalidStep for a step that is not positive and finite, or one
    whose steps over the whole schedule would exceed MAX_STEPS.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise InvalidStep(f"step {step!r} must be positive and finite")
    # clamp before rounding, so a vanishing step cannot overflow the count
    counts = [
        max(1, round(min(duration / step, MAX_STEPS + 1)))
        for _, duration in schedule.segments
    ]
    if sum(counts) > MAX_STEPS:
        raise InvalidStep(
            f"step {step!r} needs more than the budget of {MAX_STEPS} RK4 steps "
            f"over a duration of {schedule.total_duration:.6g}"
        )
    return counts


@functools.cache
def _identities(d, count):
    """A read-only stack of count d x d identities, built on first use."""
    stack = np.tile(np.eye(d), (count, 1, 1))
    stack.flags.writeable = False
    return stack


def _rk4_increment(h, start, mid, end, out=(None, None, None)):
    """P - I for one classical RK4 step of x' = A x, given A at the step's
    start, middle and end: each a d x d matrix, or a stack of at most
    _BLOCK_STEPS of them.

    The stages are those of RK4 applied to the identity, k1 = A_start and
    k_j = A (I + c k_{j-1}), summed as ((k1 + 2 k2) + 2 k3) + k4.  A stack
    adds I from a contiguous slice of _identities(d, _BLOCK_STEPS), which
    runs faster than broadcasting np.eye(d) over it and adds the same
    doubles.  out may give three arrays of the result's shape to hold the
    temporaries scaled and stage and the returned total.
    """
    scaled, stage, total = out
    d = start.shape[-1]
    identity = np.eye(d) if start.ndim == 2 else _identities(d, _BLOCK_STEPS)[: len(start)]
    # in place where it keeps the doubles, to spare temporaries of a block's size
    scaled = np.multiply(start, 0.5 * h, out=scaled)
    scaled += identity
    stage = np.matmul(mid, scaled, out=stage)
    total = np.multiply(stage, 2.0, out=total)
    total += start
    np.multiply(stage, 0.5 * h, out=scaled)
    scaled += identity
    np.matmul(mid, scaled, out=stage)
    np.multiply(stage, h, out=scaled)
    scaled += identity
    stage *= 2.0
    total += stage
    np.matmul(end, scaled, out=stage)
    total += stage
    total *= h / 6.0
    return total


def _powers(increment, x, n_steps):
    """Rows P x, P^2 x, ..., P^n x for the step matrix P = I + increment.

    Each pass doubles the known rows with one squaring of P.  P is kept
    as I + D and squared as D -> 2D + D D, so the small D never absorbs
    the rounding of the identity and the error grows with the number of
    squarings rather than with n.
    """
    rows = x[None]
    growth = increment.T
    while len(rows) <= n_steps:
        head = rows[: n_steps + 1 - len(rows)]
        rows = np.concatenate((rows, head + head @ growth))
        growth = 2.0 * growth + growth @ growth
    return rows[1:]


def _chain(increments, x):
    """Rows P_1 x, P_2 P_1 x, ..., P_k ... P_1 x for P_j = I + increments[j-1].

    A work-efficient scan over a binary tree of the steps.  The upward pass
    multiplies sibling pairs into the product of each subtree, kept in
    increment form, (I + C)(I + C') = I + C + C' + C C', like _powers; an
    odd last subtree moves up unpaired.  The downward pass gives every
    subtree the state it starts from: a left child that of its parent, a
    right child that state moved on by its left sibling.  Each step then
    applies its own P to the state it starts from.
    """
    levels = [increments]
    products = np.empty_like(increments[: len(increments) // 2])
    while len(levels[-1]) > 2:  # the root is never read
        level = levels[-1]
        pairs = len(level) // 2
        paired = np.empty_like(level[pairs:])
        np.add(level[1::2], level[0:-1:2], out=paired[:pairs])
        paired[:pairs] += np.matmul(level[1::2], level[0:-1:2], out=products[:pairs])
        paired[pairs:] = level[2 * pairs :]
        levels.append(paired)
    firsts = x[None]
    for level in reversed(levels):
        lefts = firsts[: len(level) // 2]
        below = np.empty((len(level), len(x)))
        below[0::2] = firsts
        below[1::2] = lefts + np.einsum("kij,kj->ki", level[0:-1:2], lefts)
        firsts = below
    return firsts + np.einsum("kij,kj->ki", increments, firsts)


_BLOCK_STEPS = 1024
"""Steps of a callable segment evaluated and chained together, bounding memory."""


def _walk(x, schedule, counts, operator, settle=lambda x, rows, *_: rows):
    """Classical RK4 for the real linear ODE dx/ds = A x through a schedule.

    counts gives each segment's steps, and operator maps a HamiltonianCoeffs,
    or a stack of them, to A.  A constant segment is one piece, a callable
    segment one piece per block of at most _BLOCK_STEPS steps.  A block of
    k steps calls the callable once, on its 2k + 1 stages in increasing
    order, then concatenates the even and the odd coefficient rows, which
    may come as any array-like: its stack holds the k + 1 edge operators,
    then the k midpoint ones, so that each step's start, end and middle
    are contiguous slices.  The stack, by operator(coeffs, out=), and the
    RK4 temporaries share one buffer of 5k + 1 operators, 2.6 MB at most.
    settle(x, rows, h, start, ends) maps a piece's rows to the ones
    recorded and carried on, given its first x, that x's A and each step's
    end A; as every step is linear, it may rescale rows freely.  Returns
    the sampled s and the stacked x.
    """
    s = np.zeros(1 + sum(counts))
    xs = np.empty((len(s),) + x.shape, dtype=x.dtype)
    xs[0] = x
    done, s_global = 0, 0.0
    for (hamiltonian, duration), n_steps in zip(schedule.segments, counts):
        h = duration / n_steps
        # cumsum adds in the order of a running local += h
        local = np.cumsum(np.full(n_steps, h))
        s[done + 1 : done + 1 + n_steps] = s_global + local
        bounds = np.concatenate(([0.0], local))
        for first in range(0, n_steps, _BLOCK_STEPS if callable(hamiltonian) else n_steps):
            if callable(hamiltonian):
                edges = bounds[first : first + _BLOCK_STEPS + 1]
                k = len(edges) - 1
                stages = np.empty(2 * k + 1)
                stages[0::2] = edges
                stages[1::2] = edges[:-1] + 0.5 * h
                coeffs = hamiltonian(stages)
                for name, shape in (("h", (len(stages), 8)), ("h0", (len(stages),))):
                    got = np.shape(getattr(coeffs, name))
                    if got != shape:
                        message = "a schedule callable gave {} of shape {}, expected {}"
                        raise ValueError(message.format(name, got, shape))
                # edges, then midpoints, of whatever array-likes the callable gave
                parts = coeffs.h0, coeffs.h
                coeffs = geodesics.HamiltonianCoeffs(
                    *(np.concatenate((part[0::2], part[1::2])) for part in parts)
                )
                # one allocation: separate arrays ran perfbench transport 13% slower (2-vCPU
                # x86), and reuse across blocks gained nothing
                slots = np.empty((5 * k + 1, x.size**2))
                ops = operator(coeffs, out=slots[: 2 * k + 1])
                starts, ends, mids = ops[:k], ops[1 : k + 1], ops[k + 1 :]
                temps = slots[2 * k + 1 :].reshape(3, *starts.shape)
                increments = _rk4_increment(h, starts, mids, ends, temps)
                rows, start = _chain(increments, x), ops[0]
            else:
                start = operator(hamiltonian)
                increment = _rk4_increment(h, start, start, start)
                ends = np.broadcast_to(start, (n_steps,) + start.shape)
                rows = _powers(increment, x, n_steps)
            xs[done + 1 : done + 1 + len(rows)] = settle(x, rows, h, start, ends)
            done += len(rows)
            x = xs[done]
        s_global += duration
    return s, xs


class Trajectory(NamedTuple):
    """Recorded samples of an integration run.

    State-picture runs fill every field; eight-vector runs leave psi,
    phi_p, phi_dyn and norm_drift as None.  phi_p[k] is the accumulated
    total phase arg(psi(0), psi(s_k)) and phi_dyn[k] the accumulated
    dynamical phase.  norm_drift is the largest |(|psi| - 1)| of a stepped
    state before its renormalization; it is not finite once such a state is not.
    """

    s: np.ndarray
    n: np.ndarray
    psi: np.ndarray | None = None
    phi_p: np.ndarray | None = None
    phi_dyn: np.ndarray | None = None
    norm_drift: float | None = None


def _two_term_form(table):
    """Two-term form of an (8, m) table whose columns have at most two nonzero rows.

    Returns the table with its two-term columns zeroed and, for each of
    those, a tuple (column, row, row, coefficient, coefficient), rows increasing.
    """
    counts = np.count_nonzero(table, axis=0)
    if counts.max() > 2:
        raise ValueError("a column has more than two nonzero terms")
    single, sums = table.copy(), []
    for column in np.flatnonzero(counts == 2).tolist():
        rows = np.flatnonzero(table[:, column])
        sums.append((column, *rows.tolist(), *table[rows, column].tolist()))
        single[:, column] = 0.0
    return single, tuple(sums)


_F_TERMS = _two_term_form(su3.F.transpose(1, 0, 2).reshape(8, 64))
"""Two-term form of F.h: column (r, t) gives F[r, s, t] h_s summed over s."""

_minus_i = np.zeros((8, 3, 2, 3, 2))
_minus_i[:, :, 0, :, 0] = _minus_i[:, :, 1, :, 1] = su3.LAMBDA.imag
_minus_i[:, :, 0, :, 1] = su3.LAMBDA.real
_MINUS_I_TERMS = _two_term_form(_minus_i.reshape(8, 36))
"""Two-term form of -i h.l on psi.view(float): 2x2 block (i, j) is [[Im, Re],
[-Re, Im]] of (h.l)_ij, its -Re entries left 0."""


def _two_term_sum(h, terms, out=None):
    """Columns sum_s h_s T[s, m] of a table T given by its two-term form.

    h may carry leading batch dimensions, and its last axis must hold the
    table's eight rows, else ValueError; out, if given, takes the result.
    The doubles are those of the einsum over T for a finite h.  One matmul
    by the single-term columns gives each column one product, rounded once
    on any BLAS kernel, as every other term is an exact zero; each two-term
    column is then written as its first product plus its second, and the
    final + 0.0 turns a -0 into the +0 an einsum accumulator gives.  A
    non-finite h_s makes each single-term column NaN through h_s * 0, or
    +-inf where an inf h_s is its one term; a two-term column turns
    non-finite only through its own two terms.  Those of both tables are
    in h_3 and h_8, so an inf elsewhere leaves them finite, not the NaN of
    the einsum.
    """
    table, sums = terms
    h = np.asarray(h, dtype=float)
    if h.shape[-1:] != (8,):
        raise ValueError(f"_two_term_sum got h of shape {h.shape}, expected (..., 8)")
    total = np.matmul(h, table, out=out)
    for column, first, second, a, b in sums:
        total[..., column] = h[..., first] * a + h[..., second] * b
    total += 0.0
    return total


def _state_generator(coeffs, out=None):
    """Real 6x6 form of -iH on psi.view(float), or a stack of k of them in out
    of shape (k, 36) if given: 2x2 block (i, j) is [[Im H_ij, Re H_ij],
    [-Re H_ij, Im H_ij]].  h0 joins Re H_ii and the -Re H entries are negated
    in matrix()'s order, so each double, signed zeros too, is matrix()'s for
    a finite h."""
    generator = _two_term_sum(coeffs.h, _MINUS_I_TERMS, out)
    for column in (1, 15, 29):  # Re H_ii
        generator[..., column] += coeffs.h0
    blocks = generator.reshape(*generator.shape[:-1], 3, 2, 3, 2)
    np.negative(blocks[..., :, 0, :, 1], out=blocks[..., :, 1, :, 0])
    return generator.reshape(*generator.shape[:-1], 6, 6)


def _energies(x, generated):
    # <H> = -Im(psi^dag (-iH) psi), given x and (-iH) psi in real form
    psi, rate = x.view(complex), generated.view(complex)
    return -np.einsum("...i,...i->...", psi.conj(), rate).imag


def integrate_state(psi0, schedule, step=1e-3):
    """RK4-integrate i dpsi/ds = H psi through a schedule, recording phases."""
    counts = _step_counts(schedule, step)
    psi = states.assert_normalized(psi0).astype(complex)
    trapezoids, drift = [np.zeros(1)], [0.0]

    def settle(x, rows, h, generator, ends):
        # renormalize, then keep the trapezoids of the dynamical phase -int <H> ds
        norms = np.linalg.norm(rows.view(complex), axis=1)
        drift.append(np.abs(norms - 1.0).max())
        rows /= norms[:, None]
        energies = _energies(rows, np.einsum("kij,kj->ki", ends, rows))
        before = np.concatenate(([_energies(x, generator @ x)], energies[:-1]))
        trapezoids.append(-0.5 * h * (before + energies))
        return rows

    s, xs = _walk(psi.view(float), schedule, counts, _state_generator, settle)
    psis = xs.view(complex)
    return Trajectory(
        s=s,
        n=states.n_vectors_of(psis),
        psi=psis,
        phi_p=np.angle(psis @ psis[0].conj()),
        # cumsum adds in order: the doubles of a running total phi_dyn += trapezoid
        phi_dyn=np.cumsum(np.concatenate(trapezoids)),
        norm_drift=float(np.max(drift)),
    )


def _adjoint_operator(coeffs, out=None):
    # 2 h ^ n is linear in n; each entry of F.h has at most two terms
    entries = _two_term_sum(coeffs.h, _F_TERMS, out)
    entries *= 2.0
    return entries.reshape(entries.shape[:-1] + (8, 8))


def integrate_nvector(n0, schedule, step=1e-3):
    """RK4-integrate dn/ds = 2 h ^ n through a schedule in the adjoint picture.

    n0 is one eight-vector on O: any other shape raises ValueError.  The walk
    takes a contiguous copy of a strided n0, so equal values give equal doubles.
    """
    counts = _step_counts(schedule, step)
    n0 = np.asarray(n0, dtype=float)
    if n0.shape != (8,):
        raise ValueError(f"n0 has shape {n0.shape}, expected (8,)")
    n0 = np.ascontiguousarray(states.assert_on_O(n0))
    s, ns = _walk(n0, schedule, counts, _adjoint_operator)
    return Trajectory(s=s, n=ns)


def triangle_schedule(rho1, rho2, rho3):
    """Constant-Hamiltonian schedule driving rho1 -> rho2 -> rho3 -> rho1.

    Each side uses the wedge-product Hamiltonian of its endpoints for a
    duration equal to the side's opening angle, so the dynamical phase
    vanishes along the whole loop.
    """
    ns = [states.n_vector_of(psi) for psi in states.lift_of_density([rho1, rho2, rho3])]
    segments = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        coeffs = geodesics.constant_hamiltonian(ns[a], ns[b])
        segments.append((coeffs, geodesics.geodesic_angle(ns[a], ns[b])))
    return Schedule(tuple(segments))


def evolve_triangle(rho1, rho2, rho3, step=1e-3):
    """Integrate the triangle loop; return (trajectory, phase, closure defect).

    The phase is the accumulated total minus dynamical phase of the
    integrated lift, and the closure defect is |Tr(rho_final rho_initial) - 1|.
    """
    schedule = triangle_schedule(rho1, rho2, rho3)
    psi0 = states.lift_of_density([rho1, rho2, rho3])[0]  # the schedule's lift, memoised
    trajectory = integrate_state(psi0, schedule, step)
    closure = abs(abs(np.vdot(psi0, trajectory.psi[-1])) ** 2 - 1.0)
    value = principal_branch(trajectory.phi_p[-1] - trajectory.phi_dyn[-1])
    return trajectory, PhaseResult(value, "evolution"), float(closure)
