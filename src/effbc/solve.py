"""Strip problem container and the linear / nonlinear / monotone solvers.

Every strip is the half-space problem truncated at height R with one
boundary condition per face: Dirichlet data on the bottom and a natural
(Neumann) top, so the far field converges to its free constant without
knowing it in advance.

Linear N-component systems: a matrix-free Galerkin operator, the
``grid.TensorOperator`` of the cell tensors, which folds the geometry maps
and the cell volume into them once per solve and then applies the stencil
passes of phys_gradient and scatter_flux around one combination per cell
on buffers built once; solved by preconditioned CG when the cell tensors
are exactly symmetric and by BiCGStab otherwise (both written here on
numpy arrays, each iteration writing into the arrays of the first),
preconditioned by the exact constant-coefficient FFT solve and started
from the discrete harmonic extension of the boundary data, so iteration
counts stay mesh independent.  Success is gated on the true residual,
never on the Krylov method's own residual.

Every solver can start from a given iterate (``StripProblem.start``, e.g.
the previous rung of a height ladder) instead of the harmonic extension.
The Dirichlet rows always come from the extension, and so does every
stopping target and gate: a warm start must reach the same absolute
residual as the cold one, and reported relative residuals stay relative
to the residual of the extension.  A start that is worse than the
extension by the solver's own cheap measure (residual norm, sup residual,
energy) is dropped, and a start that already meets the target returns
without an iteration.

An exact lift is returned before any reference solver is set up and
before any stencil pass: when the boundary data is constant on the plane,
its lift is a constant column, and when the flux of a zero gradient is
exactly zero on every cell, that column solves the strip exactly.  Every
solver then returns the lift after 0 iterations with residual 0.0 (the
descent with the lift's energy as its one-entry trace), the same solution
its loop would have returned, start or no start.

A laterally invariant strip is solved in fewer dimensions.  When the
operator is y-independent and the bottom data, and the start if there is
one, are constant per component along some lateral axes (by equality, so
NaN data never is), the discrete solution is constant along them too: the
discrete operator commutes with lateral shifts and the solution is unique.
Unless the lift is exact, the solver then drops those axes.  On values
constant along an edge e the reference gradient along e vanishes and the
averages over e are the values themselves, so the physical gradient is
the reduced strip's gradient Q p', Q an orthonormal frame of the plane
orthogonal to the dropped edges.  The strip solved on lies in that plane:
its lateral periods are the other periods projected off the dropped
edges, in the coordinates of Q, and its normal is the strip's.  Its
operator is the restriction to the plane (``operators.restrict``): the
flux Q^T a(Q p), the potential F(Q p), or Q^T A Q for a constant tensor.
Only when no lateral axis would remain is the last one kept, 2 cells wide.
The values are broadcast back, as a read-only view of the reduced strip's
(no copy of the full strip's size is made).  A node's residual on the full strip is
its residual on the reduced one times the ratio of the cell volumes (the
edge length of a dropped axis), and the same holds for the reference
operator, so the loops report the full strip's residual, energy and trace
and keep its stopping rules: sups carry the volume ratio, and sums over
the strip (the energy, the descent's slopes, the fixed point's
preconditioned norm) carry it times the number of full cells per reduced
cell.  A linear solve also keeps the full strip's Krylov method: Q^T A Q
can be exactly symmetric when A is not (a coupling along a dropped axis
acts on no invariant field), and BiCGStab is then still run.

Variational nonlinear equations (flux = gradient of a convex density):
``_descent_variational`` minimizes the strip energy: monotone
accelerated descent preconditioned by the exact constant-coefficient
solver, with backtracking line search; the recorded energy trace is
nonincreasing by construction.  The momentum restarts when it overshoots in energy or
points uphill (g . (U - U_prev) > 0, the gradient restart of O'Donoghue
and Candes, Found. Comput. Math. 15, 2015): near the minimum the energy
no longer resolves the steps, and the gradient test keeps the momentum
from growing the gradient again.  Each energy evaluation hands on the
gradient field it computed, so no point's gradient is computed twice.

Non-variational monotone maps: damped preconditioned fixed point
(Zarantonello) iteration u <- u - rho * K_ref^{-1} R(u), with the step
rho adapted so the preconditioned residual norm decreases monotonically.
Uniform monotonicity and Lipschitz bounds of the flux make this a
contraction for small enough rho.  Each step is first tried as a Type-II
Anderson mix over the last ANDERSON_DEPTH accepted steps, its least
squares taken in the same K_ref norm (no extra operator application); a
mix that fails the damped step's sufficient-decrease test clears the
history and the damped step backtracks, so the norm still decreases
strictly and a stall still fails loudly.

Each nonlinear loop builds one workspace after the front and drops it
when it returns: the frames and pass steps of phys_gradient and
scatter_flux (a ``grid.StencilWork``), the ``out=`` buffers of the
builtin fluxes and potentials, and the iterates, residuals and
preconditioned residuals that the loop takes and gives back, so that
after the first iterations it rotates through a fixed set of arrays and
allocates none of the strip's size.  Every value is the same, bit for
bit, as with new arrays per call; nothing of the workspace outlives the
solve (the grid of a StripSolution and the cached reference solvers keep
none of it), and the returned iterate shares no memory with it.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import StripReferenceSolver, _interior_diagonal, _plane_constant
from .errors import NonConvergedError, SolverFailureError
from .fields import LinearTensorField, PeriodicFieldExpr, evaluate_field
from .grid import StencilWork, StripGrid, TensorOperator, _symmetric_cells
from .operators import restrict

__all__ = [
    "StripProblem",
    "StripSolution",
    "solve_strip",
    "solve_linear",
    "solve_nonlinear",
    "discrete_residual",
]

# accepted steps that the monotone fixed point mixes (Anderson depth)
ANDERSON_DEPTH = 3


@dataclass
class StripProblem:
    """One truncated half-space solve: grid, operator, data, knobs."""

    grid: StripGrid
    operator: object
    data: object
    tau: float = 0.0
    rtol: float = 1e-10
    # optional initial iterate (N, *lat, n) on this grid, n <= levels; levels
    # above n repeat its top slice (so a lower ladder rung's values serve
    # as they are), and its Dirichlet rows are replaced by the lift's
    start: np.ndarray = None

    @property
    def n_components(self):
        if isinstance(self.operator, LinearTensorField):
            return self.operator.n_components
        return 1


@dataclass
class StripSolution:
    problem: StripProblem
    grid: StripGrid
    values: np.ndarray  # (N, *lat, levels), read-only; a broadcast view when reduced
    residual_norm: float
    iterations: int
    energy: float = None
    # per accepted iterate from the start: energies (descent) or
    # preconditioned residual norms sqrt(r . K_ref^-1 r) (fixed point); a
    # fixed point whose start already meets its target records none
    energy_trace: list = field(default_factory=list)
    # lateral cells of the strip the solver ran on: grid.lat_cells, or fewer
    # when a laterally invariant problem was solved in fewer dimensions
    solved_cells: tuple = None

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.solved_cells is None:
            self.solved_cells = self.grid.lat_cells

    def top_slice(self):
        return self.values[..., -1]


def boundary_values(problem, grid):
    """Evaluate the Dirichlet data on the physical bottom boundary."""
    coords = grid.bottom_coords()
    data = problem.data
    if isinstance(data, PeriodicFieldExpr):
        vals = evaluate_field(data, coords)
    else:
        vals = np.asarray(data(coords), dtype=float)
    N = problem.n_components
    if vals.ndim == len(grid.lat_cells):
        vals = vals[None, ...]
    if vals.shape[0] != N:
        raise ValueError(f"data has {vals.shape[0]} components, operator expects {N}")
    return vals


def _check_start(problem, grid):
    """Raise ValueError unless ``problem.start`` is None or has the shape
    (N, *lat, n) of this strip with 1 <= n <= levels."""
    if problem.start is None:
        return
    shape = np.shape(problem.start)
    lead = (problem.n_components,) + grid.lat_cells
    if shape[:-1] != lead or not 1 <= shape[-1] <= grid.n_vert + 1:
        raise ValueError(f"start has shape {shape}, the strip needs {lead + (grid.n_vert + 1,)}")


def _start_field(problem, U0, out=None):
    """The initial iterate ``problem.start`` (checked by _check_start),
    continued upward by its top slice when it has fewer levels than the
    strip, with the Dirichlet rows of the harmonic extension U0; into
    ``out`` when given, else a new array."""
    start = np.asarray(problem.start, dtype=float)
    n = start.shape[-1]
    U = np.empty_like(U0) if out is None else out
    U[..., :n] = start
    U[..., n:] = start[..., -1:]
    U[..., 0] = U0[..., 0]
    return U


def operator_flux(op, grads, centers, tau, out=None):
    """Physical flux per cell; grads has shape (d, N, *cells).  A nonlinear
    operator writes it into ``out`` (d, 1, *cells) when given, which needs a
    flux that takes ``out=``."""
    if isinstance(op, LinearTensorField):
        A = op(centers)
        return np.einsum("abij...,bj...->ai...", A, grads)
    y = centers if op.y_dependent else None
    if out is None:
        return op.flux(grads[:, 0], y=y, tau=tau)[:, None]
    op.flux(grads[:, 0], y=y, tau=tau, out=out[:, 0])
    return out


def nonlinear_energy(op, grid, U, centers, tau):
    grads = grid.phys_gradient(U)
    dens = op.potential(grads[:, 0], y=centers if op.y_dependent else None, tau=tau)
    return float(grid.cellvol * dens.sum())


def _zero_fixed(r):
    """Zero the rows of the Dirichlet (bottom) level of r in place."""
    r[..., 0] = 0.0
    return r


def _masked_residual(grid, op, U, centers, tau):
    grads = grid.phys_gradient(U)
    return _zero_fixed(grid.scatter_flux(operator_flux(op, grads, centers, tau)))


def _takes(fn, *names):
    """Whether the callable fn takes every keyword of ``names``."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return all(name in params for name in names)


class _Workspace:
    """The arrays of one nonlinear strip solve on ``grid``, built by the
    loop after the front and dropped when it returns.

    ``stencil`` keeps the frames and pass steps of phys_gradient and
    scatter_flux, and the flux of an operator that takes ``out=`` goes to
    ``flux``; ``scratch`` takes the products and absolute values whose sums
    and maxima are read.  A potential that takes ``out=`` and ``work=``
    writes its density into the start of ``scratch`` through the stencil's
    cell scratch, which hold nothing between the calls that use them.  Any
    other map returns new arrays, as without a workspace.  The loops take
    iterate-shaped arrays (iterates, residuals, preconditioned residuals)
    and gradient fields with ``_take`` and hand back those they drop with
    ``_give``, so that after the first iterations they rotate through a
    fixed set; an array taken and not given back (the returned iterate) is
    the caller's.  The methods are private, as the loops' own closures
    are, so that a tracer of the package's public functions and methods
    (perfbench's) still sees the loops enter operator_flux, phys_gradient
    and scatter_flux directly.
    """

    def __init__(self, grid, op, centers, tau):
        self.grid, self.op, self.centers, self.tau = grid, op, centers, tau
        self.nodes = (1,) + grid.node_shape
        self.cells = (grid.d, 1) + grid.cell_shape
        self.stencil = StencilWork(grid, (1,))
        self.flux = np.empty(self.cells) if _takes(op.flux, "out") else None
        self.scratch = np.empty(self.nodes)
        self.potential = {}
        if op.is_variational and _takes(op.potential, "out", "work"):
            density = self.scratch.reshape(-1)[: math.prod(grid.cell_shape)]
            self.potential = {
                "out": density.reshape(grid.cell_shape),
                "work": [c[0] for c in self.stencil.cells],
            }
        self._free = {self.nodes: [], self.cells: []}

    def _take(self, shape):
        free = self._free[shape]
        return free.pop() if free else np.empty(shape)

    def _give(self, *arrays):
        for a in arrays:
            self._free[a.shape].append(a)

    def _gradient(self, V, out):
        return self.grid.phys_gradient(V, out=out, work=self.stencil)

    def _residual(self, G, out):
        """The masked residual of the point with gradient field G, into out."""
        q = operator_flux(self.op, G, self.centers, self.tau, out=self.flux)
        return _zero_fixed(self.grid.scatter_flux(q, out=out, work=self.stencil))

    def _residual_of(self, V, out):
        G = self._gradient(V, self._take(self.cells))
        r = self._residual(G, out)
        self._give(G)
        return r

    def _density(self, G):
        return self.op.potential(G[:, 0], y=self.centers, tau=self.tau, **self.potential)

    def _sup(self, a):
        return float(np.abs(a, out=self.scratch).max())

    def _inner(self, a, b):
        """sum(a * b), summed as the product array is."""
        return float(np.multiply(a, b, out=self.scratch).sum())


def _lift_is_exact(problem, grid, bottom, centers):
    """Whether the lift of ``bottom`` solves the strip exactly: finite data
    constant on the plane, and a flux of a zero gradient that is exactly
    zero on every cell (NaN is not).  ``centers`` are the cell centers,
    needed by a tensor or a y-dependent operator."""
    if not (_plane_constant(bottom) and np.isfinite(bottom).all()):
        return False
    op = problem.operator
    cells = grid.cell_shape if op.y_dependent else (1,) * grid.d
    zero = np.zeros((grid.d, problem.n_components) + cells)
    return not operator_flux(op, zero, centers, problem.tau).any()


def _exact_lift(problem, grid, bottom, centers, exact):
    """The solution when the lift of ``bottom`` is exact (``exact``, the
    verdict of _lift_is_exact on this strip's data), else None.

    Finite bottom data that is constant on the plane lifts to a constant
    column U0, the bottom repeated on every level (what the reference
    solver's lift returns for it, bit for bit), whose discrete gradient is
    zero on every cell; when the flux of a zero gradient is exactly zero on
    every cell, the residual of U0 is exactly zero and every solver would
    return U0 after 0 iterations, dropping any start (the descent's too: U0
    is the minimum of its convex energy).  This returns that same solution
    with no reference solver and no stencil pass: residual 0.0, and for the
    descent the energy of U0, summed over the full cell shape as the
    descent sums it.
    """
    if not exact:
        return None
    U0 = np.repeat(bottom[..., None], grid.n_vert + 1, axis=-1)
    op = problem.operator
    if isinstance(op, LinearTensorField) or not op.is_variational:
        return StripSolution(problem, grid, U0, 0.0, 0)
    zero = np.zeros((grid.d,) + grid.cell_shape)
    E = float(grid.cellvol * op.potential(zero, y=centers, tau=problem.tau).sum())
    return StripSolution(problem, grid, U0, 0.0, 0, energy=E, energy_trace=[E])


def _reference_solver(solvers, grid):
    """The StripReferenceSolver of grid's geometry (any origin): from the
    dict ``solvers`` when given, built and stored there on a miss."""
    if solvers is None:
        return StripReferenceSolver(grid)
    key = (grid.lat_cells, grid.n_vert, grid.edges.tobytes())
    ref = solvers.get(key)
    if ref is None:
        ref = solvers[key] = StripReferenceSolver(grid)
    return ref


def _constant_along(a, axis):
    """Whether array a is constant along ``axis``, by equality."""
    return bool((a == np.take(a, [0], axis=axis)).all())


def _orthonormal(vectors):
    """Gram-Schmidt of ``vectors``: orthonormal columns (d, k) whose first
    j span the first j vectors; coordinate axes come out exactly."""
    Q = []
    for v in vectors:
        for q in Q:
            v = v - (q @ v) * q
        Q.append(v / np.linalg.norm(v))
    return np.stack(Q, axis=1)


def _reduced_strip(grid, axes):
    """The strip that a problem invariant along the lateral ``axes`` of
    ``grid`` is solved on, or None when it would have as many cells.

    Every axis of ``axes`` is dropped, but the last of them when no lateral
    axis would remain: that one keeps 2 cells.  Returns (strip, Q, kept):
    ``kept[j]`` is the number of cells kept along lateral axis j of grid (0
    when dropped).  The strip lies in the plane orthogonal to the dropped
    edges, in the coordinates of the orthonormal columns of Q (d, d'), the
    last d' of the Gram-Schmidt basis of the dropped edges, the other
    lateral edges and the normal: its lateral periods are the others
    projected off the dropped edges.  With no axis dropped, Q is None and
    the strip keeps the frame of grid.
    """
    lat = grid.lat_cells
    drop = axes if len(axes) < len(lat) else axes[:-1]
    kept = [0 if j in drop else 2 if j in axes else n for j, n in enumerate(lat)]
    if not drop and kept == list(lat):
        return None
    keep = [j for j, n in enumerate(kept) if n]
    periods = [grid.edges[:, j] * kept[j] for j in keep]
    normal, Q = grid.normal, None
    if drop:
        Q = _orthonormal([grid.edges[:, j] for j in drop + keep] + [normal])[:, len(drop):]
        periods = [Q.T @ ell for ell in periods]
        normal = Q.T @ normal
    strip = StripGrid(periods, normal, grid.s, grid.R, [kept[j] for j in keep], grid.n_vert,
                      check_resolution=False)
    return strip, Q, kept


def _reduced_solve(problem, grid, bottom, solvers, loop):
    """The solution through a strip of fewer cells (_reduced_strip), or None.

    For a y-independent operator whose lift is not exact, the lateral axes
    along which ``bottom`` (N, *lat) and the start are constant are dropped,
    or the last of them kept 2 cells wide.  ``loop`` solves the reduced
    strip from its lift with the operator restricted to its plane
    (``operators.restrict``), reporting for ``problem`` (its sums, and the
    Krylov method of its tensor), and its values are broadcast back along
    those axes.
    """
    if problem.operator.y_dependent:
        return None
    arrays = [bottom] if problem.start is None else [bottom, np.asarray(problem.start, dtype=float)]
    axes = [j for j in range(grid.d - 1) if all(_constant_along(a, 1 + j) for a in arrays)]
    reduced = _reduced_strip(grid, axes) if axes else None
    if reduced is None:
        return None
    strip, Q, kept = reduced
    # the entries solved on, and where the solved values go along each axis
    pick = (slice(None),) + tuple(slice(0, k) if k else 0 for k in kept)
    spread = (slice(None),) + tuple(
        None if not k else slice(0, 1) if k < n else slice(None)
        for k, n in zip(kept, grid.lat_cells)
    )
    op = problem.operator if Q is None else restrict(problem.operator, Q)
    start = None if problem.start is None else arrays[1][pick]
    ref = _reference_solver(solvers, strip)
    sol = loop(
        replace(problem, grid=strip, operator=op, start=start), strip, ref,
        ref.lift(bottom[pick]), _centers(op, strip), problem,
    )
    values = np.broadcast_to(sol.values[spread], (bottom.shape[0],) + grid.node_shape)
    return StripSolution(
        problem, grid, values, sol.residual_norm, sol.iterations, energy=sol.energy,
        energy_trace=sol.energy_trace, solved_cells=strip.lat_cells,
    )


def _copies(grid, full):
    """How the strip ``grid`` that a loop runs on stands for the strip
    ``full`` that it reports: the number of cells of full per cell of grid,
    and the factor full.cellvol / grid.cellvol of a node's residual and of
    the reference operator on values invariant along the dropped axes (both
    1.0 when the two are one strip)."""
    return math.prod(full.lat_cells) / math.prod(grid.lat_cells), full.cellvol / grid.cellvol


def _centers(op, grid):
    """The cell centers when the operator reads them (a tensor, or a
    y-dependent operator), else None."""
    return grid.cell_centers() if isinstance(op, LinearTensorField) or op.y_dependent else None


def _solve(problem, solvers, loop):
    """The front shared by solve_linear and solve_nonlinear: the data, the
    start's shape and whether the lift is exact, then the exact lift (before
    any reference solver is built or taken from ``solvers``), the reduced
    strip or ``loop(problem, grid, ref, U0, centers, full)``, the solver
    proper, from the lift U0 on grid, for the problem ``full`` that it
    reports (here problem itself)."""
    grid = problem.grid
    bottom = boundary_values(problem, grid)
    _check_start(problem, grid)
    centers = [_centers(problem.operator, grid)]
    exact = _lift_is_exact(problem, grid, bottom, centers[0])
    lifted = _exact_lift(problem, grid, bottom, centers[0], exact)
    if lifted is not None:
        return lifted
    if not exact:
        reduced = _reduced_solve(problem, grid, bottom, solvers, loop)
        if reduced is not None:
            return reduced
    ref = _reference_solver(solvers, grid)
    # handed over, not kept here: the linear loop drops them once read
    return loop(problem, grid, ref, ref.lift(bottom), centers.pop(), problem)


def _dot(u, v):
    # einsum's own loop, not BLAS: a threaded ddot on long vectors wakes a
    # second BLAS thread that then spins for no gain
    return float(np.einsum("i,i->", u.ravel(), v.ravel()))


def _norm(u):
    return math.sqrt(_dot(u, u))


def _pcg(matvec, precond, b, rtol, cap, ref_norm):
    """Preconditioned CG from x = 0 to residual rtol * ref_norm; returns x and
    the residual (recursive) relative to ref_norm after each iteration.

    ``matvec(V, out)`` and ``precond(r, out)`` write into ``out`` when it is
    not None, so every iteration reuses the arrays of the first; x and r
    take their updates through z, the one work array.  A breakdown (r . z
    or p . q zero) stops the loop and leaves the verdict to the caller's
    true-residual gate.
    """
    x = np.zeros_like(b)
    r = b.copy()
    target = rtol * ref_norm
    history = []
    p = q = z = rho_prev = None
    for _ in range(cap):
        z = precond(r, z)
        rho = _dot(r, z)
        if not rho:
            break
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p, q)
        pq = _dot(p, q)
        if not pq:
            break
        alpha = rho / pq
        # z is spent once p is formed: it takes alpha p and alpha q
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(q, alpha, out=z)
        rho_prev = rho
        rnorm = _norm(r)
        history.append(rnorm / ref_norm)
        if not rnorm >= target:  # converged, or NaN: the caller's gate decides
            break
    return x, history


def _bicgstab(matvec, precond, b, rtol, cap, ref_norm):
    """Right-preconditioned BiCGStab (van der Vorst, SIAM J. Sci. Stat.
    Comput. 13, 1992) from x = 0 to residual rtol * ref_norm; returns x and
    the residual (recursive) relative to ref_norm after each iteration.

    ``matvec`` and ``precond`` take an output array as _pcg's do; v and t
    keep arrays of their own, since v is read again after t is formed, and
    the two preconditioned vectors share one.  An iteration that meets the
    target at its half step s = r - alpha v stops there and records |s|; a
    breakdown (rho, rtilde . v or omega zero, or NaN) stops the loop and
    leaves the verdict to the caller's true-residual gate.
    """
    x = np.zeros_like(b)
    r = b.copy()
    r_tilde = b.copy()
    work = np.empty_like(b)
    target = rtol * ref_norm
    history = []
    p = v = t = z = None
    rho_prev = alpha = omega = 1.0
    for _ in range(cap):
        rho = _dot(r_tilde, r)
        if p is None:
            p = r.copy()
        else:
            p -= np.multiply(v, omega, out=work)
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        z = precond(p, z)  # p_hat
        v = matvec(z, v)
        rv = _dot(r_tilde, v)
        if not (rho and rv):  # breakdown: alpha or the next beta would divide by zero
            break
        alpha = rho / rv
        x += np.multiply(z, alpha, out=work)
        r -= np.multiply(v, alpha, out=work)  # the half step s
        snorm = _norm(r)
        if not snorm >= target:
            history.append(snorm / ref_norm)
            break
        z = precond(r, z)  # s_hat
        t = matvec(z, t)
        tt = _dot(t, t)
        omega = _dot(t, r) / tt if tt else 0.0
        x += np.multiply(z, omega, out=work)
        r -= np.multiply(t, omega, out=work)
        rho_prev = rho
        rnorm = _norm(r)
        history.append(rnorm / ref_norm)
        if not rnorm >= target or not omega:
            break
    return x, history


def _krylov_solve(matvec, precond, b, rtol, cap, symmetric, slack, ref_norm=None):
    """Solve matvec(x) = b from x = 0 on arrays of b's shape; ``matvec(V,
    out=None)`` and ``precond(r, out=None)`` write into ``out`` when given.

    Residuals are measured relative to ``ref_norm`` (default |b|; a warm
    start passes the cold right-hand side's norm, so that it meets the cold
    absolute target and returns at once when b already does).
    Preconditioned CG when the operator is symmetric, preconditioned
    BiCGStab otherwise.  Success is judged on the true residual
    |b - matvec(x)|, never on the solver's own measure: a recursive residual
    can underflow far below the true one.  Raises SolverFailureError when
    the true relative residual exceeds slack * rtol; its trace is each
    method's own recursive residual relative to ref_norm after each
    iteration (for BiCGStab at the iteration's end, or at its half step
    when the loop stops there), so a trace that ends below rtol with the
    gate failing shows a recursive residual that drifted from the true one.
    Returns (x, iterations, true relative residual).
    """
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    if ref_norm is None:
        ref_norm = bnorm
    elif bnorm <= rtol * ref_norm:
        return np.zeros_like(b), 0, bnorm / ref_norm
    if symmetric:
        x, history = _pcg(matvec, precond, b, rtol, cap, ref_norm)
        method = "CG"
    else:
        x, history = _bicgstab(matvec, precond, b, rtol, cap, ref_norm)
        method = "BiCGStab"
    rel = _norm(matvec(x) - b) / ref_norm
    if not rel <= slack * rtol:
        raise SolverFailureError(
            f"{method} stalled at rel residual {rel:.3e} after {len(history)} iterations",
            trace=history,
            residual=rel,
        )
    return x, len(history), rel


def solve_linear(problem: StripProblem, solvers=None) -> StripSolution:
    """Galerkin solve of the linear system on the strip, matrix free.

    A is evaluated once at the cell centers and folded with the geometry
    into a TensorOperator (the scatter of A grad V at stencil cost), and is
    then dropped; no matrix is assembled.  Preconditioned CG when
    the evaluated cell tensors are exactly symmetric, BiCGStab otherwise,
    both preconditioned by the exact constant-coefficient solve (a
    StripReferenceSolver of the strip solved on, taken from the dict
    ``solvers`` keyed by geometry when given, else built) and started from
    ``problem.start`` when its residual is below that of the discrete
    harmonic extension, else from the extension, to residual problem.rtol
    times that of the extension within 20 sqrt(n_free) iterations (at least
    200).  Fails loudly (SolverFailureError with the residual history) when
    the true residual stays above 10 rtol.  An exact lift (data constant on
    the plane, finite cell tensors) is returned at once, with no operator
    application.  A constant tensor with data and start constant along
    lateral axes is solved on the strip without them, with the tensor
    Q^T A Q of its plane but the Krylov method of A, and its values are
    broadcast back (module docstring).
    """
    if not isinstance(problem.operator, LinearTensorField):
        raise ValueError("solve_linear needs a LinearTensorField operator")
    return _solve(problem, solvers, _linear_loop)


def _linear_loop(problem, grid, ref, U0, centers, full):
    """solve_linear on ``grid`` after the front, for the problem ``full``
    that it reports: its strip's size sets the cap, and its cell tensors
    pick the Krylov method and the scale of the exact-start exit, so the
    method and the relative residuals are those of full (a restriction can
    leave a tensor that is not symmetric exactly symmetric)."""
    A = problem.operator(centers)  # (d, d, N, N, *cells)
    apply = TensorOperator(grid, A)
    symmetric = apply.symmetric
    vol_ratio = _copies(grid, full.grid)[1]
    if full is not problem:  # full's tensor is y-independent
        A = full.operator(np.zeros((full.grid.d, 1)))
        symmetric = _symmetric_cells(A)
    # of the order of the largest diagonal entry of full's assembled
    # matrix, per unit of grid's residual
    diag = float(np.abs(A).max()) * _interior_diagonal(full.grid) / vol_ratio
    del A, centers  # folded into the operator

    def matvec(V, out=None):
        return _zero_fixed(apply(V, out))

    AU0 = apply(U0)
    r0 = _zero_fixed(-AU0)
    rnorm0 = _norm(r0)
    scale = max(_norm(AU0), diag * _norm(U0), 1e-30)
    del AU0
    if rnorm0 <= 1e-12 * scale:
        # the harmonic-extension start already solves the discrete system
        return StripSolution(problem, grid, U0, rnorm0 / scale, 0)
    U, r = U0, r0
    if problem.start is not None:
        start = _start_field(problem, U0)
        r_start = _zero_fixed(-apply(start))
        if _norm(r_start) < rnorm0:  # a start worse than the extension is dropped
            U, r = start, r_start
    n_free = _copies(grid, full.grid)[0] * r0[..., 0].size * ref.n_free
    cap = max(200, int(20 * math.sqrt(n_free)))
    # the exact constant-coefficient solve is spectrally equivalent, so the
    # iteration count is mesh independent
    x, iters, rel = _krylov_solve(
        matvec, ref.solve, r, problem.rtol, cap, symmetric, 10.0, ref_norm=rnorm0
    )
    x += U
    return StripSolution(problem, grid, x, rel, iters)


def _armijo(energy, X, d, EX, slope, t, scale, cand, G):
    """Backtracking search along -d from X (energy EX, slope g . d) from step
    t, each trial X - t d written into ``cand`` and its gradient field into
    ``G`` by ``energy(cand, G)``; returns (cand, its energy, G, t) or None
    after 60 halvings."""
    for _ in range(60):
        np.subtract(X, np.multiply(d, t, out=cand), out=cand)
        Ec = energy(cand, G)
        if Ec <= EX - 0.25 * t * slope + 1e-15 * scale:
            return cand, Ec, G, t
        t *= 0.5
    return None


def _descent_variational(
    problem, grid, ref, op, U0, centers, gtol_rel=1e-9, maxiter=500, full=None
):
    """Monotone accelerated descent on the discrete strip energy to
    sup |R| <= gtol_rel max(1, |E(U0)|), preconditioned by ``ref.solve``.

    Starts from problem.start when its energy is below that of the lift U0,
    else from U0; the tolerance and line-search scale is max(1, |E(U0)|)
    either way.  The energy, the slopes and the residual are those of the
    strip ``full`` (default grid) that grid stands for (_copies).
    Returns (U, E, iterations, energy trace, sup |R(U)|).

    Every array of the loop comes from one _Workspace.  An iteration takes
    the residual g, the search direction, the trial point and its gradient
    field, and with momentum the extrapolated point V, its gradient field
    and residual; the accepted trial becomes U and its gradient field G,
    the outgoing U becomes U_prev, and the rest go back.  The returned
    iterate is U0 itself after 0 iterations, else a workspace array that
    nothing else holds.
    """
    ws = _Workspace(grid, op, centers, problem.tau)
    nodes, cells = ws.nodes, ws.cells
    copies, vol_ratio = _copies(grid, grid if full is None else full)
    weight = copies * vol_ratio
    vol = weight * grid.cellvol

    def energy(V, G):
        return float(vol * ws._density(ws._gradient(V, G)).sum())

    U, G = U0, ws._take(cells)
    E = energy(U, G)
    scale = max(1.0, abs(E))
    if problem.start is not None:
        start, G_start = _start_field(problem, U0, ws._take(nodes)), ws._take(cells)
        E_start = energy(start, G_start)
        if E_start < E:  # a start above the lift's energy is dropped
            U, E, G, G_start = start, E_start, G_start, G
        else:
            ws._give(start)
        ws._give(G_start)
    gtol = gtol_rel * scale
    trace = [E]
    U_prev = None  # set by the first accepted step, before momentum can be non-zero
    t_prev = 1.0
    momentum = 0.0
    for it in range(maxiter):
        g = ws._residual(G, ws._take(nodes))
        gsup = vol_ratio * ws._sup(g)
        if gsup <= gtol:
            return U, E, it, trace, gsup
        if momentum:
            V = np.subtract(U, U_prev, out=ws._take(nodes))
            if _dot(g, V) > 0.0:
                momentum = 0.0
                ws._give(V)
        if momentum:
            V = np.add(U, np.multiply(V, momentum, out=V), out=V)
            GV = ws._take(cells)
            EV = energy(V, GV)
            gV = ws._residual(GV, ws._take(nodes))
            mixed = (V, GV, gV)
        else:
            V, gV, EV, GV = U, g, E, G  # V = U exactly
            mixed = ()
        t0 = min(1.0, 2.0 * t_prev)
        dV = ref.solve(gV, out=ws._take(nodes))
        cand, G_cand = ws._take(nodes), ws._take(cells)
        accepted = _armijo(energy, V, dV, EV, weight * ws._inner(gV, dV), t0, scale, cand, G_cand)
        overshoot = accepted is None or accepted[1] > E
        if overshoot and momentum:
            # fall back to plain descent from U (at zero momentum that
            # search is the one just made)
            d = ref.solve(g, out=dV)
            accepted = _armijo(energy, U, d, E, weight * ws._inner(g, d), t0, scale, cand, G_cand)
        if accepted is None:
            raise NonConvergedError("line search failed to decrease energy", trace=trace)
        momentum = 0.0 if overshoot else min(0.9, momentum + 0.3)
        ws._give(g, dV, G, *mixed)
        if U_prev is not None and U_prev is not U0:
            ws._give(U_prev)
        U_prev = U
        U, E_new, G, t_prev = accepted
        if E_new > E + 1e-12 * scale:
            raise NonConvergedError("energy increased, internal inconsistency", trace=trace)
        E = E_new
        trace.append(E)
    raise NonConvergedError(
        f"descent did not reach tolerance in {maxiter} iterations", trace=trace
    )


def _solve_small(G, b):
    """x with G x = b for a small dense system, by Gaussian elimination with
    partial pivoting in Python floats (no LAPACK); None if a pivot vanishes."""
    n = len(b)
    M = [list(row) + [bi] for row, bi in zip(G, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(M[i][k]))
        M[k], M[p] = M[p], M[k]
        if M[k][k] == 0.0:
            return None
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            for j in range(k, n + 1):
                M[i][j] -= f * M[k][j]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (M[i][n] - sum(M[i][j] * x[j] for j in range(i + 1, n))) / M[i][i]
    return x


class _AndersonHistory:
    """The (dU, dZ) differences of the last ``depth`` accepted fixed-point
    steps, dZ = K_ref^{-1} dR, and their Gram matrix G_ij = dZ_i . dR_j.

    Since K_ref dZ = dR on the free rows, G holds K_ref inner products and is
    symmetric, so entry (i, j) is formed once, with the newer dR, when the
    newer step arrives; the dR arrays themselves are not kept.  Arrays that
    leave the history, and a candidate's array when the mix is singular, go
    to ``release``.
    """

    def __init__(self, depth, release):
        self.depth = depth
        self.release = release
        self.steps = []
        self.gram = []

    def clear(self):
        for pair in self.steps:
            self.release(*pair)
        self.steps.clear()
        self.gram.clear()

    def push(self, dU, dZ, dR):
        if len(self.steps) == self.depth:
            self.release(*self.steps[0])
            del self.steps[0], self.gram[0]
            for row in self.gram:
                del row[0]
        self.steps.append((dU, dZ))
        col = [_dot(dZ_i, dR) for _, dZ_i in self.steps]
        for row, g in zip(self.gram, col):
            row.append(g)
        self.gram.append(col)

    def candidate(self, U, z, r, rho, out, tmp):
        """Type-II Anderson mix U - rho z - sum gamma_i (dU_i - rho dZ_i) of
        the damped step, into ``out`` through ``tmp``, or None when the Gram
        system is singular.

        gamma minimizes the K_ref norm of the mixed residual
        r - sum gamma_i dR_i; its normal equations are G gamma = b with
        b_i = dZ_i . r, solved with a relative ridge that keeps G regular.
        """
        ridge = 1e-13 * max(row[i] for i, row in enumerate(self.gram))
        G = [[g + ridge * (i == j) for j, g in enumerate(row)] for i, row in enumerate(self.gram)]
        gamma = _solve_small(G, [_dot(dZ, r) for _, dZ in self.steps])
        if gamma is None or not all(map(math.isfinite, gamma)):
            self.release(out)
            return None
        cand = np.multiply(z, -rho, out=out)
        cand += U
        for g, (dU, dZ) in zip(gamma, self.steps):
            cand -= np.multiply(dU, g, out=tmp)
            cand += np.multiply(dZ, g * rho, out=tmp)
        return cand


def _fixed_point_monotone(
    problem, grid, ref, op, U0, centers, rtol=1e-8, maxiter=2000,
    depth=ANDERSON_DEPTH, full=None,
):
    """Damped preconditioned fixed point for monotone non-gradient fluxes.

    The target max(rtol sup |R(U0)|, floor) comes from the lift U0, which is
    returned at once when it meets it; otherwise the iteration starts from
    problem.start when its sup residual is below the lift's, else from U0.
    A start that meets the target returns before any reference solve, with
    an empty trace.

    Each iteration first tries the Anderson mix of the damped step over the
    last ``depth`` accepted steps and keeps it only if it passes the
    sufficient-decrease test of the damped step; otherwise the history is
    cleared and the damped step backtracks.  ``depth=0`` is the plain damped
    iteration.  Returns (U, iterations, trace of the accepted preconditioned
    residual norms sqrt(r . K_ref^-1 r), strictly decreasing, sup |R(U)|);
    the residuals, norms and floor are those of the strip ``full`` (default
    grid) that grid stands for (_copies).

    Every array of the loop comes from one _Workspace, and U0 is never
    written.  Each attempt takes a trial iterate, its residual and its
    preconditioned residual, and gives back all three when it fails; an
    accepted step's outgoing U and z = K_ref^-1 r become its differences
    in the history (its r the Gram column, then given back), or go back at
    depth 0.  The returned iterate is U0 itself when it meets the target,
    else a workspace array that nothing else holds.
    """
    full = grid if full is None else full
    copies, vol_ratio = _copies(grid, full)
    weight = copies * vol_ratio
    ws = _Workspace(grid, op, centers, problem.tau)
    nodes = ws.nodes
    r = ws._residual_of(U0, ws._take(nodes))
    rsup = vol_ratio * ws._sup(r)
    lam = getattr(op, "lam", 0.5)
    lip = getattr(op, "lip", 1.0)
    # absolute floor: roundoff level of one residual row
    floor = 1e-12 * full.cellvol / min(full.spacings) ** 2 * lip * (ws._sup(U0) + 1.0)
    target = max(rtol * rsup, floor)
    U = U0
    if problem.start is not None and not rsup <= target:
        start = _start_field(problem, U0, ws._take(nodes))
        r_start = ws._residual_of(start, ws._take(nodes))
        sup_start = vol_ratio * ws._sup(r_start)
        if sup_start < rsup:  # a start worse than the lift is dropped
            ws._give(r)
            U, r, rsup = start, r_start, sup_start
        else:
            ws._give(start, r_start)
    if rsup <= target:
        return U, 0, [], rsup
    if U is U0:
        U = ws._take(nodes)
        np.copyto(U, U0)
    rho = lam / lip**2
    rho_max = 1.5 * rho
    solved = ref.solve(r, out=ws._take(nodes))
    n_r = math.sqrt(max(weight * ws._inner(r, solved), 0.0))
    trace = [n_r]
    history = _AndersonHistory(depth, ws._give)

    def attempt(U_new):
        # the damped step's sufficient-decrease test, at the current rho and n_r
        r_new = ws._residual_of(U_new, ws._take(nodes))
        solved_new = ref.solve(r_new, out=ws._take(nodes))
        n_new = math.sqrt(max(weight * ws._inner(r_new, solved_new), 0.0))
        if n_new <= n_r * (1.0 - 0.25 * rho * lam) or n_new <= 1e-14 * (1.0 + n_r):
            return U_new, r_new, solved_new, n_new
        ws._give(U_new, r_new, solved_new)
        return None

    for it in range(maxiter):
        if rsup <= target:
            return U, it, trace, rsup
        step = None
        if history.steps:
            cand = history.candidate(U, solved, r, rho, ws._take(nodes), ws.scratch)
            step = attempt(cand) if cand is not None else None
            if step is None:
                history.clear()
        if step is None:
            for _ in range(40):
                cand = ws._take(nodes)
                step = attempt(np.subtract(U, np.multiply(solved, rho, out=cand), out=cand))
                if step is not None:
                    break
                rho *= 0.5
            else:
                raise NonConvergedError("monotone step kept failing to contract", trace=trace)
        U_new, r_new, solved_new, n_r = step
        if depth:
            # the outgoing iterate's buffers become the newest differences
            history.push(
                np.subtract(U_new, U, out=U),
                np.subtract(solved_new, solved, out=solved),
                np.subtract(r_new, r, out=r),
            )
            ws._give(r)
        else:
            ws._give(U, r, solved)
        U, r, solved = U_new, r_new, solved_new
        rsup = vol_ratio * ws._sup(r)
        rho = min(rho * 1.1, rho_max)
        trace.append(n_r)
    raise NonConvergedError(
        f"fixed point did not reach tolerance in {maxiter} iterations", trace=trace
    )


def solve_nonlinear(problem: StripProblem, solvers=None) -> StripSolution:
    """Solve the nonlinear strip problem.

    Gradient-form operators minimize the discrete energy; plain monotone
    maps run the preconditioned fixed point.  Both start from
    ``problem.start`` when it beats the discrete harmonic extension of the
    boundary data by the loop's own measure, else from the extension, and
    are preconditioned by a StripReferenceSolver of the strip solved on
    (from the dict ``solvers`` keyed by geometry when given, else built).
    The reported residual is the sup of the one the loop tested last.  An
    exact lift (data constant on the plane, a flux that vanishes at zero
    gradient on every cell) is returned at once, before any stencil pass,
    with residual 0.0 and 0 iterations.  A y-independent operator with data
    and start constant along lateral axes is solved on the strip without
    them, restricted to its plane, its values broadcast back, and its
    energy, trace and residual reported for the full strip (module
    docstring).
    """
    if isinstance(problem.operator, LinearTensorField):
        raise ValueError("use solve_linear for tensor operators")
    return _solve(problem, solvers, _nonlinear_loop)


def _nonlinear_loop(problem, grid, ref, U0, centers, full):
    """solve_nonlinear on ``grid`` after the front; the loops report their
    sums for the strip of the problem ``full``."""
    op = problem.operator
    if op.is_variational:
        U, E, iters, trace, rsup = _descent_variational(
            problem, grid, ref, op, U0, centers, full=full.grid
        )
        return StripSolution(problem, grid, U, rsup, iters, energy=E, energy_trace=trace)
    U, iters, trace, rsup = _fixed_point_monotone(
        problem, grid, ref, op, U0, centers, full=full.grid
    )
    return StripSolution(problem, grid, U, rsup, iters, energy=None, energy_trace=trace)


def solve_strip(problem: StripProblem, solvers=None) -> StripSolution:
    if isinstance(problem.operator, LinearTensorField):
        return solve_linear(problem, solvers)
    return solve_nonlinear(problem, solvers)


def discrete_residual(solution: StripSolution, values=None):
    """Interior residual density of the discrete divergence-form operator.

    Applies the matrix-free operator to ``values`` (default: the stored
    solution) and reports sup and root-mean-square of the nodal residual
    divided by the cell volume, over interior levels only.  For a
    function injected from outside this measures the consistency error of
    the discretization and decays at second order for smooth fluxes.
    """
    problem = solution.problem
    grid = solution.grid
    op = problem.operator
    U = solution.values if values is None else values
    grads = grid.phys_gradient(U)
    r = grid.scatter_flux(operator_flux(op, grads, grid.cell_centers(), problem.tau))
    density = r[..., 1:-1] / grid.cellvol
    sup = float(np.abs(density).max())
    rms = float(np.sqrt(np.mean(density**2)))
    return {"sup": sup, "rms": rms}
