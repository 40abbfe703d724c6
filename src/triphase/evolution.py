"""Classical RK4 evolution in the state and eight-vector pictures.

A schedule is a sequence of (hamiltonian, duration) segments.  Each
hamiltonian entry is either a HamiltonianCoeffs or a callable mapping a
1-D array of k parameters (measured from the segment start) to one
HamiltonianCoeffs stack, h0 of shape (k,) and h of shape (k, 8), which
keeps the integrator usable for the parameter-dependent geodesic family.

State picture:        i dpsi/ds = H(s) psi      (renormalized each step)
Eight-vector picture: dn/ds = 2 h(s) ^ n        (no renormalization)

Both run one fixed-step classical Runge-Kutta walk for the real linear ODE
dx/ds = A(s) x; the step divides each segment duration exactly.  In the
eight-vector picture x = n and A = 2 F.h.  In the state picture x is the
real 6-vector psi.view(float) = (re0, im0, re1, im1, re2, im2) and A the
real 6x6 form of -iH, whose 2x2 block (i, j) is
[[Im H_ij, Re H_ij], [-Re H_ij, Im H_ij]]; the recorded psi is a complex
view of the walked rows.  On a constant segment one RK4 step is the
linear map x -> P x, with P = I + a(I + a/2(I + a/3(I + a/4))) and a = h A.
The walk forms this step matrix once per segment and reaches every step's
state through powers of P taken by repeated squaring, with no loop over
steps.  A parameter-dependent segment runs in blocks of steps: one call
of its callable gives every stage Hamiltonian of a block, one batched RK4
step of the identity gives each step's own matrix P_k, and a prefix scan
over a tree of the steps gives the states P_k ... P_1 x, again with no
loop over steps.  A block's operator stack and RK4 temporaries share one
buffer of at most 2.6 MB, allocated for that block.
Every step is linear, so P (x/|x|) points the same way as P x, and the
state picture renormalizes the states of a segment or block, and takes
their dynamical-phase trapezoids, in one pass after it.
A schedule may take at most MAX_STEPS steps in total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geodesics, states, su3
from .errors import InvalidStep, OutOfRange
from .phases import PhaseResult, principal_branch


@dataclass(frozen=True)
class Schedule:
    """Piecewise evolution plan: tuple of (hamiltonian, duration) segments.

    A hamiltonian is a HamiltonianCoeffs, constant over its segment, or a
    callable that maps a 1-D array of k parameters, measured from the
    segment start, to one HamiltonianCoeffs with h0 of shape (k,) and h of
    shape (k, 8), as geodesics.geodesic_hamiltonian_family does; an h of
    another shape raises ValueError before the block's RK4 steps.
    """

    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise OutOfRange("schedule needs at least one segment")
        for _, duration in self.segments:
            if not (np.isfinite(duration) and duration > 0.0):
                raise OutOfRange(f"segment duration {duration!r} must be positive")

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


def _rk4_increment(h, start, mid, end, out=(None, None, None)):
    """P - I for one classical RK4 step of x' = A x, given A at the step's
    start, middle and end (each may be a stack).

    The stages are those of RK4 applied to the identity, k1 = A_start and
    k_j = A (I + c k_{j-1}), summed as ((k1 + 2 k2) + 2 k3) + k4.  out may
    give three arrays of the result's shape to hold the temporaries scaled
    and stage and the returned total.
    """
    scaled, stage, total = out
    identity = np.eye(start.shape[-1])
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
    levels = []
    level = increments
    while len(level) > 1:
        levels.append(level)
        earlier, later = level[0:-1:2], level[1::2]
        paired = later + earlier
        paired += later @ earlier
        level = np.concatenate((paired, level[len(level) - len(level) % 2 :]))
    firsts = x[None]
    for level in reversed(levels):
        lefts = firsts[: len(level) // 2]
        below = np.empty((len(level), len(x)))
        below[0::2] = firsts
        below[1::2] = lefts + np.einsum("kij,kj->ki", level[0:-1:2], lefts)
        firsts = below
    return firsts + np.einsum("kij,kj->ki", increments, firsts)


_BLOCK_STEPS = 1024
"""Steps of a callable segment evaluated and chained together, bounding memory;
it also sizes the largest block buffer, 5 _BLOCK_STEPS + 1 8x8 matrices, about 2.6 MB."""


def _walk(x, schedule, counts, operator, settle=lambda x, rows, *_: rows):
    """Classical RK4 for the real linear ODE dx/ds = A x through a schedule.

    counts gives each segment's number of steps and operator maps a
    segment's HamiltonianCoeffs, or a stack of them, to the real matrix A.
    A constant segment evaluates A once, takes the step matrix P as one
    RK4 step of the identity, and produces its rows P x, ..., P^n x by
    repeated squaring.  A callable segment runs in blocks of at most
    _BLOCK_STEPS steps: each block calls the callable once, on its start
    and each step's middle and end, takes every step's P_k - I from one
    batched RK4 step of the identity, and chains the rows P_k ... P_1 x by
    a prefix scan.  Once per constant segment and per block,
    settle(x, rows, h, start, ends) maps the stepped rows to the ones
    recorded and carried on, given the first x, its A and the stack of each
    step's end A; as every step is linear, it may rescale rows freely.
    Returns the sampled s and the stacked x.  Settled rows go straight into
    the preallocated result; beside it the walk holds only the rows of one
    constant segment or the arrays of one callable block.  A block's 5k + 1
    operators for k steps, its stack by operator(coeffs, out=) and then the
    RK4 temporaries, sit in one buffer of its own, 2.6 MB at most.
    """
    s = np.zeros(1 + sum(counts))
    xs = np.empty((len(s),) + x.shape, dtype=x.dtype)
    xs[0] = x
    done, s_global = 0, 0.0

    def record(x, rows, h, start, ends):
        # settle the rows into place and return the last one, carried on
        nonlocal done
        xs[done + 1 : done + 1 + len(rows)] = settle(x, rows, h, start, ends)
        done += len(rows)
        return xs[done]

    for (hamiltonian, duration), n_steps in zip(schedule.segments, counts):
        h = duration / n_steps
        # cumsum adds in the order of a running local += h
        local = np.cumsum(np.full(n_steps, h))
        s[done + 1 : done + 1 + n_steps] = s_global + local
        if callable(hamiltonian):
            bounds = np.concatenate(([0.0], local))
            for first in range(0, n_steps, _BLOCK_STEPS):
                edges = bounds[first : first + _BLOCK_STEPS + 1]
                stages = np.empty(2 * len(edges) - 1)
                stages[0::2] = edges
                stages[1::2] = edges[:-1] + 0.5 * h
                coeffs, shape = hamiltonian(stages), (len(stages), 8)
                if np.shape(coeffs.h) != shape:
                    message = "a schedule callable gave h of shape {}, expected {}"
                    raise ValueError(message.format(np.shape(coeffs.h), shape))
                # 5k + 1 slots of d x d doubles, one allocation: separate arrays ran perfbench
                # transport 13% slower (2-vCPU x86), and reuse across blocks gained nothing
                k = len(edges) - 1
                slots = np.empty((5 * k + 1, x.size**2))
                ops = operator(coeffs, out=slots[: 2 * k + 1])
                starts, mids, ends = ops[:-1:2], ops[1::2], ops[2::2]
                temps = slots[2 * k + 1 :].reshape(3, *starts.shape)
                increments = _rk4_increment(h, starts, mids, ends, temps)
                x = record(x, _chain(increments, x), h, ops[0], ends)
        else:
            start = operator(hamiltonian)
            increment = _rk4_increment(h, start, start, start)
            ends = np.broadcast_to(start, (n_steps,) + start.shape)
            x = record(x, _powers(increment, x, n_steps), h, start, ends)
        s_global += duration
    return s, xs


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of an integration run.

    State-picture runs fill every field; eight-vector runs leave psi,
    phi_p, phi_dyn and norm_drift as None.  phi_p[k] is the accumulated
    total phase arg(psi(0), psi(s_k)) and phi_dyn[k] the accumulated
    dynamical phase.  norm_drift is the largest |(|psi| - 1)| of a stepped
    state before its renormalization.
    """

    s: np.ndarray
    n: np.ndarray
    psi: np.ndarray | None = None
    phi_p: np.ndarray | None = None
    phi_dyn: np.ndarray | None = None
    norm_drift: float | None = None


def _state_generator(coeffs, out=None):
    """Real 6x6 form of -iH on psi.view(float), filled by its 2x2 blocks, or a
    stack of k of them; out of shape (k, 36), when given, takes the result."""
    matrix = coeffs.matrix()
    stack = matrix.shape[:-2]
    generator = np.empty(stack + (36,)) if out is None else out
    blocks = generator.reshape(stack + (3, 2, 3, 2))
    blocks[..., :, 0, :, 0] = blocks[..., :, 1, :, 1] = matrix.imag
    blocks[..., :, 0, :, 1] = matrix.real
    np.negative(matrix.real, out=blocks[..., :, 1, :, 0])
    return generator.reshape(stack + (6, 6))


def _energies(x, generated):
    # <H> = -Im(psi^dag (-iH) psi), given x and (-iH) psi in real form
    psi, rate = x.view(complex), generated.view(complex)
    return -np.einsum("...i,...i->...", psi.conj(), rate).imag


def integrate_state(psi0, schedule, step=1e-3):
    """RK4-integrate i dpsi/ds = H psi through a schedule, recording phases."""
    counts = _step_counts(schedule, step)
    psi = states.assert_normalized(psi0).astype(complex)
    phi_dyn, drift = [np.zeros(1)], [0.0]

    def settle(x, rows, h, generator, ends):
        # renormalize, then add the trapezoids of the dynamical phase -int <H> ds
        norms = np.linalg.norm(rows.view(complex), axis=1)
        drift.append(np.abs(norms - 1.0).max())
        rows /= norms[:, None]
        energies = _energies(rows, np.einsum("kij,kj->ki", ends, rows))
        before = np.concatenate(([_energies(x, generator @ x)], energies[:-1]))
        steps = np.concatenate((phi_dyn[-1][-1:], -0.5 * h * (before + energies)))
        phi_dyn.append(np.cumsum(steps)[1:])
        return rows

    s, xs = _walk(psi.view(float), schedule, counts, _state_generator, settle)
    psis = xs.view(complex)
    return Trajectory(
        s=s,
        n=states.n_vectors_of(psis),
        psi=psis,
        phi_p=np.angle(psis @ psis[0].conj()),
        phi_dyn=np.concatenate(phi_dyn),
        norm_drift=float(max(drift)),
    )


def _adjoint_operator(coeffs, out=None):
    # 2 h ^ n is linear in n; each entry of F.h has at most two terms
    entries = su3.two_term_sum(coeffs.h, su3.F_TERMS, out)
    entries *= 2.0
    return entries.reshape(entries.shape[:-1] + (8, 8))


def integrate_nvector(n0, schedule, step=1e-3):
    """RK4-integrate dn/ds = 2 h ^ n through a schedule in the adjoint picture."""
    counts = _step_counts(schedule, step)
    s, ns = _walk(states.assert_on_O(n0), schedule, counts, _adjoint_operator)
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
