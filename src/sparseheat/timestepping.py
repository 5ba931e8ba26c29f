"""Fully discrete heat solvers: P1 elements in space, dG(r) in time, r in {0,1}.

On a slab of length k a Laplacian eigenmode (A v = lam M v, s = k lam) is
multiplied by the subdiagonal Pade approximant of exp(-s), which has the
pole form r(s) = Re(c / (s - sigma)): sigma = -1, c = 1 gives 1/(1 + s)
for dG(0); sigma = s1 = -2 + i sqrt(2), c = 2 (6 - 2 s1) / (s1 - conj(s1))
gives (6 - 2s)/(s^2 + 4s + 6) for dG(1), the conjugate pole pair summed
into one real part (Richter, Springer & Vexler, Numer. Math. 124, 2013).
So one step of either order is one shifted N x N solve,
u = Re(c (kA - sigma M)^{-1} f), with f the previous trace paired with M
(first slab: the initial load) and one real (dG(0)) or complex (dG(1))
factorization per model, since every grid is uniform. The step operator
is symmetric, so the adjoint is the same loop as the forward solve.
`pade_step_oracle` computes the amplification independently from the raw
dG(1) slab system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .fem import SPLU_SYMMETRIC, assemble_mass, delta_load, interior_stiffness
from .fem import assemble_stiffness  # unused here; perfbench/tracing.py wraps this name

_S1 = complex(-2.0, np.sqrt(2.0))
# dG order -> (sigma, c) of the step kernel Re(c (kA - sigma M)^{-1} f).
_POLES = {
    0: (-1.0, 1.0),
    1: (_S1, 2.0 * (6.0 - 2.0 * _S1) / (_S1 - _S1.conjugate())),
}


class TimeGrid:
    """Uniform partition of (0, T] into M steps of length k = T / M."""

    def __init__(self, T, M):
        if not T > 0:
            raise ValueError("final time must be positive")
        if M < 1:
            raise ValueError("need at least one time step")
        self.T = float(T)
        self.M = int(M)
        self.k = self.T / self.M


class HeatModel:
    """Assembled discretization of the homogeneous heat equation.

    Bundles the mesh, the full mass matrix, the interior index set, the
    interior mass and stiffness blocks, the time grid and the dG order;
    the slab matrix is factored on the first propagation and reused. The
    mass block is sliced from the full mass matrix, which candidate
    selection and the L2 pairings need anyway; the stiffness block comes
    from the 5-point stencil (`fem.interior_stiffness`), so the full
    stiffness matrix is never assembled.
    """

    def __init__(self, mesh, grid, order):
        if order not in (0, 1):
            raise ValueError("dG order must be 0 or 1")
        self.mesh = mesh
        self.grid = grid
        self.order = int(order)
        self.mass = assemble_mass(mesh)
        self.interior = mesh.interior_nodes()
        self.mass_int = self.mass[self.interior][:, self.interior].tocsr()
        self.stiff_int = interior_stiffness(mesh)
        self._slab_lu = None

    @property
    def n_interior(self):
        return self.interior.size

    def _step(self, f):
        if self._slab_lu is None:
            sigma = _POLES[self.order][0]
            try:
                mat = (self.grid.k * self.stiff_int - sigma * self.mass_int).tocsc()
                self._slab_lu = spla.splu(mat, **SPLU_SYMMETRIC)
            except RuntimeError as exc:
                raise NumericalError(f"slab factorization failed: {exc}") from exc
        return np.real(_POLES[self.order][1] * self._slab_lu.solve(f))

    def _propagate(self, f):
        u = self._step(f)
        for _ in range(self.grid.M - 1):
            u = self._step(self.mass_int @ u)
        return u

    def propagate_load(self, b_int):
        """End-time trace from a first-slab load vector on interior nodes."""
        return self._propagate(b_int)

    def propagate_adjoint(self, w_int):
        """Transposed propagation: terminal pairing back to the initial trace."""
        return self._propagate(w_int)

    def embed(self, interior_values):
        """Interior coefficients as full nodal values (zero boundary)."""
        values = np.zeros(self.mesh.num_nodes)
        values[self.interior] = interior_values
        return values


def forward_dirac(model, q):
    """End-time state generated by an atomic initial measure.

    The measure enters through the duality pairing with the first-slab
    test trace, i.e. the load vector collects hat-function values at the
    atom positions. An empty measure yields the zero state.
    """
    if len(q) == 0:
        return np.zeros(model.mesh.num_nodes)
    b = delta_load(model.mesh, q)[model.interior]
    return model.embed(model.propagate_load(b))


def forward_field(model, v0):
    """End-time state generated by initial nodal values v0.

    The initial datum enters through the L2 pairing (mass matrix), which
    realizes the projection of v0 onto the interior P1 space.
    """
    if v0.shape[0] != model.mesh.num_nodes:
        raise ValueError("initial field does not match the model mesh")
    b = (model.mass @ v0)[model.interior]
    return model.embed(model.propagate_load(b))


def adjoint_dirac(model, g):
    """Initial trace of the backward solve driven by a terminal residual.

    Returns the nodal values z with < q, z > = (forward_dirac(q), g) in L2
    for every atomic measure q, exactly up to factorization round-off.
    """
    if g.shape[0] != model.mesh.num_nodes:
        raise ValueError("terminal field does not match the model mesh")
    w = (model.mass @ g)[model.interior]
    return model.embed(model.propagate_adjoint(w))


def pade_step_oracle(lam, k, order):
    """Amplification of one dG slab for the scalar mode u' + lam*u = 0.

    For order 0 this is 1/(1 + k*lam). For order 1 the 2x2 slab system in
    the shifted Legendre basis {1, 2(t - t_{m-1})/k - 1} is solved
    numerically and the end trace returned; the result agrees with the
    subdiagonal (1,2) Pade approximant of exp(-k*lam).
    """
    if k <= 0 or lam < 0:
        raise ValueError("need k > 0 and lam >= 0")
    if order not in (0, 1):
        raise ValueError("dG order must be 0 or 1")
    s = k * lam
    if order == 0:
        return 1.0 / (1.0 + s)
    mat = np.array([[1.0 + s, 1.0], [-1.0, 1.0 + s / 3.0]])
    u = np.linalg.solve(mat, np.array([1.0, -1.0]))
    return float(u[0] + u[1])
