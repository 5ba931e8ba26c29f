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
factorization per model, since every grid is uniform. Propagations are
nodal in and out; the interior numbering in which the slab matrix is
factored (nested dissection, `mesh.dissection_order`) stays in `HeatModel`.

Every slab applies the same step operator S = Re(c (kA - sigma M)^{-1}) M,
so a propagation of M slabs is S^(M-1) u1 with u1 the first step. S is
self-adjoint in the M inner product with eigenvalues r(k lam), and every
discrete Dirichlet eigenvalue of the unit square is at least 2 pi^2 (P1
is conforming, so min-max bounds it by the continuous one). So the
spectrum of S lies in [a, b] (`spectral_interval`), and t^(M-1) is
evaluated as its Chebyshev series on [a, b] (`power_weights`) by the
three-term recurrence, one step per term: about sqrt(37 M) slab solves
instead of M, with the same factorization (the Chebyshev propagator of
Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; Sachdeva & Vishnoi, Found.
Trends Theor. Comput. Sci. 9, 2014, section 3). The result is a polynomial
in S applied to a symmetric solve, so the adjoint is the same series as
the forward solve, and a pairing of the end state with a fixed vector
(`HeatModel.pair_end_state`) is a sum of Chebyshev moments that two
columns reach in half the steps. `pade_step_oracle` computes the
amplification independently from the raw dG(1) slab system.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .fem import SPLU_SYMMETRIC, assemble_mass, delta_load, interior_mass
from .fem import interior_stiffness
from .fem import assemble_stiffness  # unused here; perfbench/tracing.py wraps this name

_S1 = complex(-2.0, np.sqrt(2.0))
# dG order -> (sigma, c) of the step kernel Re(c (kA - sigma M)^{-1} f).
_POLES = {
    0: (-1.0, 1.0),
    1: (_S1, 2.0 * (6.0 - 2.0 * _S1) / (_S1 - _S1.conjugate())),
}
# Smallest Dirichlet eigenvalue of the Laplacian on the unit square.
LAMBDA_1 = 2.0 * np.pi**2
# Relative size below which trailing Chebyshev weights are dropped.
WEIGHT_CUTOFF = 1e-17
# SuperLU settings of the slab factorization: the pivots of
# fem.SPLU_SYMMETRIC, no column permutation, since the interior blocks
# come in nested-dissection order (mesh.dissection_order), and panels of
# 4 columns, which keep the factorization's transient memory at that of
# the minimum-degree factorization without changing the fill.
SPLU_SLAB = dict(SPLU_SYMMETRIC, permc_spec="NATURAL", panel_size=4)


def _amplification(s, order):
    """r(s) = Re(c / (s - sigma)): one dG slab's factor on a mode with s = k lam."""
    sigma, c = _POLES[order]
    return float(np.real(c / (s - sigma)))


def spectral_interval(k, order):
    """An interval [a, b] holding r(k lam) for every discrete eigenvalue lam.

    a is the minimum of r over s >= 0: 0 (the infimum of 1/(1 + s)) for
    dG(0), r(3 + sqrt 27) for dG(1). The dG(0) factor falls throughout;
    the dG(1) factor falls from 1 to its minimum and then rises towards 0
    from below. So lam >= LAMBDA_1 gives r(k lam) <= max(r(k LAMBDA_1), 0)
    = b. With b tied to the decay of
    the slowest mode rather than b = 1, the series' round-off is about
    eps max(b, -a)^(M-1) |u1| instead of eps |u1|, so it shrinks with
    the state as T grows.
    """
    a = 0.0 if order == 0 else _amplification(3.0 + np.sqrt(27.0), 1)
    return a, max(_amplification(k * LAMBDA_1, order), 0.0)


def power_weights(M, a, b):
    """Chebyshev coefficients w of t^(M-1) on [a, b], t = (a + b)/2 + (b - a)/2 x.

    Built as `chebpow` builds it, from the M - 1 products of the linear
    factor in z-series form, not from binomial formulas, but with the
    tail dropped during the build: about sqrt(37 M) coefficients are
    carried instead of up to M. A product multiplies sum |w| by at most
    rho = max(|a|, |b|), and sum |w| of t^s is at least rho^s (its value
    at x = 1 or -1), so dropping a last coefficient of at most
    WEIGHT_CUTOFF / M rho^s after product s changes the result by at most
    WEIGHT_CUTOFF sum |w| in all. Trailing weights of at most
    WEIGHT_CUTOFF times sum |w| are dropped at the end (at least one
    stays). The weights sum to b^(M-1), the power at x = 1.
    """
    c0, c1 = (a + b) / 2.0, (b - a) / 2.0
    line = np.array([c1 / 2.0, c0, c1 / 2.0])
    rho, budget = max(abs(a), abs(b)), WEIGHT_CUTOFF / M
    zs = np.ones(1)
    for _ in range(M - 1):
        zs = np.convolve(zs, line)
        budget *= rho
        if 2.0 * abs(zs[-1]) <= budget:
            zs = zs[1:-1]
    w = zs[zs.size // 2 :].copy()
    w[1:] *= 2.0
    kept = np.flatnonzero(np.abs(w) > WEIGHT_CUTOFF * np.abs(w).sum())
    return w[: kept[-1] + 1 if kept.size else 1]


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
        if not self.k > 0:
            raise ValueError(f"time step T/M = {T:g}/{M} underflows to 0")


class HeatModel:
    """Assembled discretization of the homogeneous heat equation.

    Bundles the mesh, the interior index set, the interior mass and
    stiffness blocks, the time grid and the dG order; the slab matrix is
    factored, and the Chebyshev weights are computed, on the first
    propagation or pairing and reused, and the full mass matrix is
    assembled when `mass` is first read.
    Propagations take a nodal load, a column or a batch, ignore its
    boundary rows and return the nodal end state, zero on the boundary.
    Inside, `interior` lists the interior nodes in the nested-dissection
    order of `mesh.interior_nodes()`, and the interior blocks follow it,
    so the slab matrix is factored without a column permutation
    (`SPLU_SLAB`).
    Both blocks are written from the lattice stencil
    (`fem.interior_mass`, `fem.interior_stiffness`), so propagation
    assembles no full matrix. The full mass serves the L2 loads and
    pairings of `forward_field`, `adjoint_dirac`, PDAP and the drivers;
    the smoothing study never reads it.
    """

    def __init__(self, mesh, grid, order):
        if order not in (0, 1):
            raise ValueError("dG order must be 0 or 1")
        self.mesh = mesh
        self.grid = grid
        self.order = int(order)
        self.interior = mesh.interior_nodes()
        self.mass_int = interior_mass(mesh)
        self.stiff_int = interior_stiffness(mesh)
        self._weights = {}

    @functools.cached_property
    def mass(self):
        """Full mass matrix, assembled on first use."""
        return assemble_mass(self.mesh)

    @functools.cached_property
    def _slab_lu(self):
        """LU factors of the slab matrix kA - sigma M, computed on first use."""
        sigma = _POLES[self.order][0]
        try:
            mat = (self.grid.k * self.stiff_int - sigma * self.mass_int).tocsc()
            return spla.splu(mat, **SPLU_SLAB)
        except RuntimeError as exc:
            raise NumericalError(f"slab factorization failed: {exc}") from exc

    def _step(self, f):
        return np.real(_POLES[self.order][1] * self._slab_lu.solve(f))

    def _power_weights(self, M):
        """`power_weights(M, a, b)` on this model's interval, computed once."""
        if M not in self._weights:
            interval = spectral_interval(self.grid.k, self.order)
            self._weights[M] = power_weights(M, *interval)
        return self._weights[M]

    def _chebyshev(self, y):
        # T_j(L) y for j = 1, 2, ... with L = (2S - (a + b)) / (b - a), by
        # y_{j+1} = 2 L y_j - y_{j-1} (y_1 = L y_0), in place: once
        # subtracted, the buffer of y_{j-1} holds the scratch products.
        a, b = spectral_interval(self.grid.k, self.order)
        y_prev = np.zeros_like(y)
        scale = 2.0 / (b - a)
        while True:
            y_next = self._step(self.mass_int @ y)
            y_next *= scale
            y_next -= y_prev
            np.multiply(y, scale * (a + b) / 2.0, out=y_prev)
            y_next -= y_prev
            yield y_next
            y_prev, y = y, y_next
            scale = 4.0 / (b - a)

    def propagate_load(self, load):
        """End-time state from a first-slab load."""
        # S^(M-1) u1 = sum_j w_j T_j(L) u1.
        weights = self._power_weights(self.grid.M)
        y = self._step(load[self.interior])
        acc = weights[0] * y
        for w, y in zip(weights[1:], self._chebyshev(y)):
            acc += w * y
        return self.embed(acc)

    # The propagator is self-adjoint in the M inner product, so the
    # transposed propagation (terminal pairing back to the initial trace)
    # is the same map; the second name lets perfbench/tracing.py count
    # adjoints apart from forward propagations.
    propagate_adjoint = propagate_load

    def pair_end_state(self, functional, load):
        """functional . propagate_load(load), without forming the end state.

        S = R M with R = Re(c (kA - sigma M)^{-1}) symmetric, so with
        v = R functional and u1 = R load, solved as one two-column batch,
        the value is <v, S^(M-2) u1>_M: the weights of t^(M-2) summed
        against the moments mu_j = <v, T_j(L) u1>_M. L is self-adjoint in
        the M inner product, so T_{i+k} = 2 T_i T_k - T_{|i-k|} gives
        mu_{2k} = 2 <T_k v, T_k u1>_M - mu_0 and mu_{2k+1} =
        2 <T_{k+1} v, T_k u1>_M - mu_1, and both columns run only
        ceil(d/2) steps of the recurrence for d + 1 weights (the moment
        doubling of the kernel polynomial method; Weisse, Wellein,
        Alvermann & Fehske, Rev. Mod. Phys. 78, 2006). That is one solve
        for M = 1 and 1 + ceil(d/2) two-column ones otherwise. The long
        products are einsum loops, not BLAS dot products, whose worker
        thread costs more than the product at these sizes.
        """
        # Factored first: the factorization's transient memory adds to the
        # resident set it starts from, which the batch would raise.
        self._slab_lu
        functional, load = functional[self.interior], load[self.interior]
        if self.grid.M == 1:
            return float(np.einsum("i,i", functional, self._step(load)))
        weights = self._power_weights(self.grid.M - 1)
        y = self._step(np.column_stack([functional, load]))
        mass_u = self.mass_int @ y[:, 1]
        moments = [np.einsum("i,i", y[:, 0], mass_u)]
        for y in itertools.islice(self._chebyshev(y), weights.size // 2):
            pair = np.einsum("i,i", y[:, 0], mass_u)
            moments.append(2.0 * pair - moments[1] if len(moments) > 1 else pair)
            mass_u = self.mass_int @ y[:, 1]
            moments.append(2.0 * np.einsum("i,i", y[:, 0], mass_u) - moments[0])
        return float(np.einsum("i,i", weights, moments[: weights.size]))

    def pairings(self, a, vectors):
        """Dot products of nodal a with each of `vectors` over the interior.

        Summed in the order of `interior`; they are the nodal dot products
        when either factor vanishes on the boundary, as propagated states do.
        """
        a = a[self.interior]
        return [a @ v[self.interior] for v in vectors]

    def embed(self, interior_values):
        """Interior values, a column or a batch, as nodal values (zero boundary)."""
        values = np.zeros((self.mesh.num_nodes,) + np.shape(interior_values)[1:])
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
    return model.propagate_load(delta_load(model.mesh, q))


def forward_field(model, v0):
    """End-time state generated by initial nodal values v0.

    The initial datum enters through the L2 pairing (mass matrix), which
    realizes the projection of v0 onto the interior P1 space.
    """
    if v0.shape[0] != model.mesh.num_nodes:
        raise ValueError("initial field does not match the model mesh")
    return model.propagate_load(model.mass @ v0)


def adjoint_dirac(model, g):
    """Initial trace of the backward solve driven by a terminal residual.

    Returns the nodal values z with < q, z > = (forward_dirac(q), g) in L2
    for every atomic measure q, exactly up to factorization round-off.
    """
    if g.shape[0] != model.mesh.num_nodes:
        raise ValueError("terminal field does not match the model mesh")
    return model.propagate_adjoint(model.mass @ g)


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
