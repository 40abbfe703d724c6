"""Classical RK4 evolution in the state and eight-vector pictures.

A schedule is a sequence of (hamiltonian, duration) segments.  Each
hamiltonian entry is either a HamiltonianCoeffs or a callable mapping
the parameter (measured from the segment start) to one, which keeps the
integrator usable for the parameter-dependent geodesic family.

State picture:        i dpsi/ds = H(s) psi      (renormalized each step)
Eight-vector picture: dn/ds = 2 h(s) ^ n        (no renormalization)

Both run one fixed-step classical Runge-Kutta walk for the linear ODE
dx/ds = c A(s) x, with c = -i and A = H in the state picture and c = 1,
A = 2 F.h in the eight-vector picture; the step divides each segment
duration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geodesics, states, su3
from .errors import InvalidStep, OutOfRange
from .phases import PhaseResult, principal_branch


@dataclass(frozen=True)
class Schedule:
    """Piecewise evolution plan: tuple of (hamiltonian, duration) segments."""

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


def _check_step(step):
    if not (np.isfinite(step) and step > 0.0):
        raise InvalidStep(f"step {step!r} must be positive and finite")


def _walk(x, schedule, step, operator, rate, begin=None, settle=None):
    """Classical RK4 for dx/ds = rate(A, x) through a schedule.

    operator maps a segment's HamiltonianCoeffs to A.  A constant segment
    evaluates it once; a callable one at each step's middle and end, and
    the end serves as the next step's start.  begin(x, A) runs at each
    segment start; settle(x, h, A_end) maps each stepped x to the one
    carried on.  Returns the sampled s and the list of x.
    """
    s_values = [0.0]
    xs = [x]
    s_global = 0.0
    for hamiltonian, duration in schedule.segments:
        varying = callable(hamiltonian)
        start = mid = end = operator(hamiltonian(0.0) if varying else hamiltonian)
        n_steps = max(1, round(duration / step))
        h = duration / n_steps
        local = 0.0
        if begin is not None:
            begin(x, start)
        for _ in range(n_steps):
            if varying:
                mid = operator(hamiltonian(local + 0.5 * h))
                end = operator(hamiltonian(local + h))
            k1 = rate(start, x)
            k2 = rate(mid, x + 0.5 * h * k1)
            k3 = rate(mid, x + 0.5 * h * k2)
            k4 = rate(end, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if settle is not None:
                x = settle(x, h, end)
            start = end
            local += h
            s_values.append(s_global + local)
            xs.append(x)
        s_global += duration
    return np.array(s_values), xs


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of an integration run.

    State-picture runs fill every field; eight-vector runs leave psi,
    phi_p and phi_dyn as None.  phi_p[k] is the accumulated total phase
    arg(psi(0), psi(s_k)) and phi_dyn[k] the accumulated dynamical phase.
    """

    s: np.ndarray
    n: np.ndarray
    psi: np.ndarray | None = None
    phi_p: np.ndarray | None = None
    phi_dyn: np.ndarray | None = None


def _schrodinger_rate(matrix, psi):
    return -1j * (matrix @ psi)


def integrate_state(psi0, schedule, step=1e-3):
    """RK4-integrate i dpsi/ds = H psi through a schedule, recording phases."""
    _check_step(step)
    psi = states.assert_normalized(psi0).astype(complex)
    phi_dyn = [0.0]
    energy = 0.0

    def begin(psi, matrix):
        nonlocal energy
        energy = np.vdot(psi, matrix @ psi).real

    def settle(psi, h, matrix):
        # renormalize, then add one trapezoid of the dynamical phase -int <H> ds
        nonlocal energy
        psi = psi / np.linalg.norm(psi)
        next_energy = np.vdot(psi, matrix @ psi).real
        phi_dyn.append(phi_dyn[-1] - 0.5 * h * (energy + next_energy))
        energy = next_energy
        return psi

    s, psis = _walk(
        psi, schedule, step, lambda c: c.matrix(), _schrodinger_rate, begin, settle
    )
    psis = np.array(psis)
    phi_p = np.angle(psis @ psis[0].conj())
    return Trajectory(
        s=s,
        n=states.n_vectors_of(psis),
        psi=psis,
        phi_p=phi_p,
        phi_dyn=np.array(phi_dyn),
    )


def _adjoint_operator(coeffs):
    # 2 h ^ n is linear in n; contract the antisymmetric table once
    return 2.0 * np.einsum("rst,s->rt", su3.F, coeffs.h)


def integrate_nvector(n0, schedule, step=1e-3):
    """RK4-integrate dn/ds = 2 h ^ n through a schedule in the adjoint picture."""
    _check_step(step)
    s, ns = _walk(states.assert_on_O(n0), schedule, step, _adjoint_operator, np.matmul)
    return Trajectory(s=s, n=np.array(ns))


def triangle_schedule(rho1, rho2, rho3):
    """Constant-Hamiltonian schedule driving rho1 -> rho2 -> rho3 -> rho1.

    Each side uses the wedge-product Hamiltonian of its endpoints for a
    duration equal to the side's opening angle, so the dynamical phase
    vanishes along the whole loop.
    """
    ns = [
        states.n_vector_of(states.lift_of_density(r)) for r in (rho1, rho2, rho3)
    ]
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
    psi0 = states.lift_of_density(rho1)
    trajectory = integrate_state(psi0, schedule, step)
    closure = abs(abs(np.vdot(psi0, trajectory.psi[-1])) ** 2 - 1.0)
    value = principal_branch(trajectory.phi_p[-1] - trajectory.phi_dyn[-1])
    return trajectory, PhaseResult(value, "evolution"), float(closure)
