"""Explicit finite-difference marching for the quasilinear parabolic system.

    d_t u^i = div A^i(grad u) + f^i(x, t, u, grad u)

Variable-step two-step Adams-Bashforth (AB2; Hairer, Norsett & Wanner,
Solving ODEs I, III.5) in time with the adjoint central-difference
divergence in space.  With F_n the rate at step n and w = dt_n / dt_{n-1},

    u_{n+1} = u_n + dt_n [F_n + (w / 2) (F_n - F_{n-1})],

and the first step of a run is forward Euler.  The stable step is

    dt_stab = min(cfl * min_axis(h^2) / (c_b n D_max), dt_max),

where D_max is the largest eigenvalue of the flux Jacobian over the current
gradient samples and c_b bounds |lambda|max h^2 per axis of the wide
stencil's heat operator (central difference applied twice, boundary planes
frozen): 1 on periodic grids, where it is max sin^2(k h); 3/2 on Dirichlet
grids, where the one-sided closures carry a boundary mode whose
|lambda|max h^2 is 3/2 at 4 cells and falls to 4/3 as the cells grow
(1.354 at 8, 1.3336 at 16).  So dt_stab rho <= cfl <= 1 for the heat
operator on every admissible grid, inside AB2's real-axis stability
interval dt rho <= 1.  The rest of each snapshot interval is split evenly,
m = ceil(rest / dt_stab) steps of rest / m, so the last step lands on the
snapshot time exactly and w stays near 1 (a clipped step would make the
next w large).  A stable step under 1e-12, or not a number, marks the run
Diverged rather than stalling.  A run stores snapshot_count evenly spaced
snapshots and reports Completed, BlowupDetected (any |u| or |grad u| sample
beyond the threshold), or Diverged (non-finite samples or floored dt).
Identical configs, including the seed, reproduce bitwise-identical records.

The march is one call, _march(config, store): it calls store on each
snapshot it stores, a view of the live state, and returns the effective
config, the step history and the status.  run's store copies each snapshot
into its RunRecord.  `gradbound solve` passes the record writer's, which
writes each one to disk and holds none, so its memory does not grow with
snapshot_count; save_run runs the same writer, _Writer, over a record's
snapshots.

Each step evaluates one stage into a workspace allocated once per run and
rewritten every step, with the arithmetic of the public kernels'
fresh-array calls, so records are bit-identical to them.  _flux writes
the gradient, its magnitude and the flux; _d_max reads the two Jacobian
eigenvalues once, and its tangential one is the flux coefficient
|A(Q)| / |Q|, so the flux is grad times it.  _rate adds the divergence
and f.  The update runs in place in the stage's term buffer as
term = F_{n-1} - F_n; term *= -w/2; term += F_n; term *= dt; u += term,
and then the rate and history buffers swap references, so no array is
copied or allocated.  On Dirichlet grids term's boundary planes are set to
-0.0 before it is added: u + -0.0 is u for every u, signed zeros included,
so every boundary sample stays bit-equal whatever the stencil gave there.

The gradient buffer is axis-major, (n, *node_shape, N) seen as
(*node_shape, N, n), so each axis's derivative is written, and each flux
slot read by the divergence, contiguously; the flux gets a buffer of the
same layout unless it is the identity (pure p = 2).  D_max reads the two
Jacobian eigenvalues at every node.  Both are monotone in |Q| for p >= 2,
and for double power with p < 2 their sum has one interior minimum, so in
real arithmetic the max sits at the smallest or largest |Q|; in floating
point a node one ulp inside an extreme can round one ulp above it
(regularized p = 2.5, double power p = 1.2), so the two-extremes shortcut
would move dt and is not taken.  The status check reads one min and one
max of u: a non-finite extreme is Diverged, and max(max, -min) past the
threshold is BlowupDetected.

Every kernel on the step's path runs long inner loops: one numpy call per
component or per axis slot, and the stencil interior as one flat shifted
subtract.  A broadcast over the trailing component axis (N = 1 to 3) or a
slice of the last spatial axis makes numpy run one short inner loop per
node or per row, and its per-loop overhead then costs more than the
arithmetic.  The arithmetic and its order are those of the broadcast, so
the bits are the same.

The split march.  A run marches on one or more processes, each on its own
slab of consecutive planes along axis 0: with P processes and m planes,
process k holds planes m k // P to m (k + 1) // P, the parent the first
slab.  The state and every stage array live in anonymous shared memory
(mmap), and the parent forks the P - 1 children when the march starts.  A
step is two phases, each ended by a barrier (_Team.sync):

1. _flux on the slab, whose axis-0 derivative reads the state's planes on
   either side of it; each process posts its slab's max |grad u| and D_max.
2. Every process takes the max of the posts with numpy, so a NaN
   propagates, and makes the same blowup check and the same dt.  _advance
   then evaluates the slab's divergence, whose axis-0 difference reads the
   neighbouring slabs' flux planes that the barrier saw written, and f,
   updates the slab's u, and posts the slab's min and max of u, which give
   every process the same status.

Every kernel is elementwise or a per-node stencil, and max and min are
exact, so the records are byte-identical for any number of processes.  One
process runs the same code, with no fork and no wait.

The barrier: each process stores its arrival count in a shared array and
spins until every count has reached its own, calling sched_yield after
_SPINS polls.  A blocking barrier (pipes) gained nothing on a shared 2-vCPU
host: each wake-up put both processes on one vCPU.  Posts are plain stores
made after the slab's own array stores, and a process that reads a count
then reads the data behind it.  That is sound where the machine keeps
stores, and loads, in program order (x86-64's total store order); other
machines march on one process.  Posts alternate between two board rows by
the barrier's parity: no process can post twice more before the slowest
has read a row.

The process rule, _processes: one process for a manufactured source (a
table that may ignore x and return the whole grid), off Linux, off a
store-ordered machine, and where the caller runs other threads, which a
fork would not copy.  Otherwise min(_MAX_PROCESSES, cores, node values //
_MIN_SLAB_VALUES, planes), where node values are nodes x N and cores are
the affinity mask's, or the share a campaign pool gives each worker
(cores // workers: one when the pool holds every core).  _MIN_SLAB_VALUES
= 8192 node values per slab, 2.5 planes of the 33^2 x 3 Dirichlet plane:
on a 2-core x86-64 host, two processes took 1.04x the one-process step
time at 16^3 x 3 (6144 values a slab), 0.90x at 20^3 x 2, 0.81x at
24^3 x 2 (periodic p = 2.5, aligned source, ~315 steps, fork included) and
~0.6x on the 33^3 x 3 Dirichlet solve of the benchmark; 8^3 x 1 took 3.3x.
_MAX_PROCESSES = 2 because these are two-process figures: thinner slabs
and a barrier whose polls grow with the count are unmeasured past two.

Threads running the same two phases on the same arrays (numpy releases the
GIL inside these kernels, not between them) gave less: on the benchmark's
33^3 x 3 Dirichlet march, 2-core host, medians of 6 alternating runs, two
threads took 0.77x the one-process wall time and 1.27x its CPU time with a
blocking barrier (0.72x and 1.25x spinning), two processes 0.62x and 1.21x.

No child outlives the march.  Where a fork fails (a process limit), the
parent kills and reaps the children it has and marches alone, as the
one-process march would have.  A child leaves with os._exit when the march
ends, stops or raises, and while it spins it polls os.getppid(), so it
leaves when the parent is gone.  The parent kills and reaps every child
when it leaves the march, however it leaves, and raises RuntimeError when
a child ends without arriving at a barrier.  An exception in one slab's
phase is posted at the next barrier and raised in every process.  Where a
child's slab failed, the parent kills and reaps the children and runs the
lowest failing slab's phase itself.  At the barrier that slab's inputs are
what they were when its phase raised: phase 1 only reads u, which no
process writes during it, and phase 2 raises in _rate, before the slab's
update, and reads only the slab's u and the flux planes, which phase 2
never writes.  So run raises the type and message the one-process march
raises.  Where the replay does not raise (a failure only the child had,
such as a MemoryError), the parent raises RuntimeError naming the slab's
planes.  A numpy warning raised in a child's slab is printed by that child.
"""

from __future__ import annotations

import enum
import json
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Union

import numpy as np

from . import flux as flux_mod
from .flux import FluxKind, FluxSpec, RhsKind, RhsSpec, rhs_eval
from .mesh import (
    Boundary,
    Field,
    Grid,
    _diff_along,
    _divergence_of,
    grad_magnitude,
    node_coords,
    save_field,
    load_field,
)
from .regimes import _Report

__all__ = [
    "RandomSmooth",
    "Prescribed",
    "SolveConfig",
    "StatusKind",
    "RunStatus",
    "RunRecord",
    "initial_field",
    "run",
    "save_run",
    "load_run",
]

DT_FLOOR = 1e-12
REGULARIZATION_DEFAULT = 1e-6
# c_b of the module docstring: the per-axis |lambda|max h^2 the step rule assumes
_STENCIL_RADIUS = {Boundary.PERIODIC: 1.0, Boundary.DIRICHLET: 1.5}
# The split march (module docstring): the machine whose store order its barrier
# relies on, the most processes measured, node values per slab below which a
# second process does not pay, polls before a waiting process yields
_STORE_ORDERED = "x86_64"
_MAX_PROCESSES = 2
_MIN_SLAB_VALUES = 8192
_SPINS = 64
# cores one run may march on; None reads the affinity mask (a campaign pool sets its share)
_cores: int | None = None


@dataclass(frozen=True)
class RandomSmooth:
    """Finite Fourier-mode combination with decaying spectrum, linear in amplitude."""

    seed: int
    amplitude: float = 1.0
    modes: int = 2

    def __post_init__(self):
        if not self.seed >= 0:
            raise ValueError(f"'seed' must be >= 0, got {self.seed}")
        if not self.modes >= 1:
            raise ValueError(f"'modes' must be >= 1, got {self.modes}")


@dataclass(frozen=True, eq=False)
class Prescribed:
    values: np.ndarray


InitialData = Union[RandomSmooth, Prescribed]


@dataclass(frozen=True)
class SolveConfig:
    grid: Grid
    flux: FluxSpec
    rhs: RhsSpec
    initial: InitialData
    N: int
    t_end: float
    cfl: float = 0.4
    dt_max: float = 1e-2
    snapshot_count: int = 64
    blowup_threshold: float = 1e8

    def __post_init__(self):
        if not self.t_end >= 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not self.blowup_threshold > 0.0:
            raise ValueError(f"'blowup_threshold' must be positive, got {self.blowup_threshold}")
        if self.snapshot_count < 64:
            raise ValueError(f"need >= 64 snapshots, got {self.snapshot_count}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.rhs.direction is not None and len(self.rhs.direction) != self.N:
            raise ValueError(f"rhs direction has {len(self.rhs.direction)} entries, "
                             f"need one per component (N = {self.N})")


class StatusKind(enum.Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class RunStatus(_Report):
    kind: StatusKind
    time: float | None = None


class RunRecord:
    """Time-ordered snapshots plus step history and the final status.

    The snapshots' values are marked read-only here: _magnitudes holds the
    cylinder checks' private cache of box |grad u| per snapshot, which
    energy._record_check fills and reads, and which stays true only while no
    stored snapshot is written.  A copied or unpickled record is rebuilt
    through __init__, so it is read-only too and starts with an empty cache.
    """

    __slots__ = ("config", "snapshots", "dt_history", "status", "_magnitudes")

    def __init__(self, config: SolveConfig, snapshots: list[Field],
                 dt_history: np.ndarray, status: RunStatus):
        for snap in snapshots:
            snap.values.flags.writeable = False
        self.config = config
        self.snapshots = snapshots
        self.dt_history = np.asarray(dt_history, dtype=np.float64)
        self.status = status
        self._magnitudes: dict = {}

    def __reduce__(self):
        return RunRecord, (self.config, self.snapshots, self.dt_history, self.status)

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def completed(self) -> bool:
        return self.status.kind is StatusKind.COMPLETED


def _resolve_flux(spec: FluxSpec) -> FluxSpec:
    """Route singular pure fluxes (p < 2) through the regularized family."""
    if spec.kind is FluxKind.PURE_P_LAPLACE and spec.p < 2.0:
        return FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, spec.p, eps=REGULARIZATION_DEFAULT)
    return spec


def initial_field(config: SolveConfig) -> Field:
    grid, init = config.grid, config.initial
    if isinstance(init, Prescribed):
        vals = np.asarray(init.values, dtype=np.float64)
        if vals.shape != grid.node_shape + (config.N,):
            raise ValueError(
                f"initial values shape {vals.shape} does not match grid/N "
                f"{grid.node_shape + (config.N,)}"
            )
        return Field(grid, vals.copy(), 0.0)
    if not isinstance(init, RandomSmooth):
        raise ValueError(f"unknown initial data selector {init!r}")

    # Each mode is built from per-axis 1-D factors broadcast over the grid, with
    # the operations and their order of the formula on node_coords: an axis's
    # coordinates there are these 1-D ones, so the field is the same bits.
    rng = np.random.default_rng(init.seed)
    axes = [grid.axis_coords(a).reshape((-1,) + (1,) * (grid.n - 1 - a)) for a in range(grid.n)]
    vals = np.empty(grid.node_shape + (config.N,))
    m = init.modes
    for comp in range(config.N):
        acc = np.zeros(grid.node_shape)
        if grid.boundary is Boundary.PERIODIC:
            for k in np.ndindex(*([m + 1] * grid.n)):
                if not any(k):
                    continue
                coeff = rng.standard_normal() / (1.0 + sum(ki * ki for ki in k)) ** 2
                arg = rng.uniform(0.0, 2.0 * math.pi)  # the phase
                for a, ka in enumerate(k):
                    arg = arg + (2.0 * math.pi * ka / grid.extent[a]) * axes[a]
                acc += coeff * np.cos(arg)
        else:
            for k in np.ndindex(*([m] * grid.n)):
                coeff = rng.standard_normal() / (1.0 + sum((ki + 1) ** 2 for ki in k)) ** 2
                term = 1.0
                for a, ka in enumerate(k):
                    term = term * np.sin(math.pi * (ka + 1) / grid.extent[a] * axes[a])
                acc += coeff * term
        vals[..., comp] = acc
    return Field(grid, init.amplitude * vals, 0.0)


def _next_dt(grid: Grid, cfl: float, dt_max: float, d_max: float, rest: float
             ) -> float | None:
    """The next step: rest split evenly into steps no longer than the stable one.

    None when the stable step is under DT_FLOOR or not a number (a NaN D_max).
    """
    if d_max <= 0.0:
        dt_stab = dt_max
    else:  # a NaN d_max lands here, and min keeps its NaN first argument
        h2 = min(h * h for h in grid.h)
        dt_stab = min(cfl * h2 / (_STENCIL_RADIUS[grid.boundary] * grid.n * d_max), dt_max)
    if not dt_stab >= DT_FLOOR:
        return None
    return rest / math.ceil(rest / dt_stab)


class _Stage:
    """The arrays a step writes, in shared memory, allocated once per run.

    u is the state.  grad is an (*node_shape, N, n) view of an axis-major
    (n, *node_shape, N) buffer, so each axis's derivative and each flux slot
    the divergence reads is contiguous.  flux is None for the identity flux,
    whose flux is grad itself.  rate receives this step's rate and prev
    holds the last step's; _advance swaps the two after each step.  term
    holds each divergence part, then f, then the step's increment; frozen
    lists term's boundary planes on Dirichlet grids (none on periodic ones)
    as views made once, which a fill runs through faster than a fancy index.
    scratch holds three node-shaped arrays for the kernels' per-node factors.

    Every array lives in anonymous shared memory, so forked processes write
    the same pages.  cut(first, stop) points the slab attributes (all but u
    and axis0) at planes [first, stop) of axis 0; axis0 stays the whole
    first flux slot, whose neighbouring planes the divergence reads.
    """

    __slots__ = ("u", "axis0", "planes", "grad", "mag", "flux", "rate", "prev", "term",
                 "frozen", "scratch", "_whole")

    def __init__(self, grid: Grid, N: int, flux: FluxSpec):
        nodes = grid.node_shape
        self.u = _shared(nodes + (N,))
        grad = np.moveaxis(_shared((grid.n,) + nodes + (N,)), 0, -1)
        flux_buf = None if flux_mod._is_identity(flux) else np.moveaxis(
            _shared((grid.n,) + nodes + (N,)), 0, -1)
        self.axis0 = (grad if flux_buf is None else flux_buf)[..., 0]
        self._whole = (grid, grad, _shared(nodes), flux_buf, _shared(nodes + (N,)),
                       _shared(nodes + (N,)), _shared(nodes + (N,)), _shared((3,) + nodes))
        self.cut(0, nodes[0])

    def cut(self, first: int, stop: int) -> None:
        grid, grad, mag, flux, rate, prev, term, scratch = self._whole
        rows = slice(first, stop)
        self.planes = (first, stop)
        self.grad, self.mag, self.rate, self.prev, self.term = (
            grad[rows], mag[rows], rate[rows], prev[rows], term[rows])
        self.flux = None if flux is None else flux[rows]
        self.scratch = scratch[:, rows]
        count = grid.node_shape[0]
        self.frozen = [] if grid.boundary is Boundary.PERIODIC else [
            self.term[(slice(None),) * a + (side,)] for a in range(grid.n) for side in (0, -1)
            if a > 0 or (side == 0 and first == 0) or (side == -1 and stop == count)]


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array in anonymous shared memory, zero-filled; forked processes share its pages."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), count=count).reshape(shape)


def _flux(state: Field, config: SolveConfig, stage: _Stage) -> tuple[float, float]:
    """The slab's gradient, magnitude and flux; returns its max |grad u| and D_max.

    The derivative along axis 0 reads the state's planes next to the slab.
    """
    grid, u, (first, stop) = state.grid, state.values, stage.planes
    _diff_along(u, 0, grid.h[0], grid.boundary, out=stage.grad[..., 0], planes=stage.planes)
    for a in range(1, grid.n):
        _diff_along(u[first:stop], a, grid.h[a], grid.boundary, out=stage.grad[..., a])
    mag = grad_magnitude(stage.grad, out=stage.mag, scratch=stage.scratch)
    d_max, coeff = _d_max(config.flux, mag, stage.scratch)
    if coeff is not None:
        flux_mod._scaled(coeff, stage.grad, stage.flux)
    return float(mag.max()), d_max


def _rate(state: Field, config: SolveConfig, x: np.ndarray, stage: _Stage) -> np.ndarray:
    """The slab's div A(grad u) + f, from _flux's arrays; returns stage.rate.

    The divergence along axis 0 reads the flux planes next to the slab, so
    every slab's _flux must have run.  mesh._divergence_of sums the axis
    differences, as mesh.divergence does.  On Dirichlet grids the rate's
    boundary planes hold whatever the stencil gives there: _advance freezes
    the planes of the increment.
    """
    grid, (first, stop) = state.grid, stage.planes
    flux = stage.grad if stage.flux is None else stage.flux
    rate = _divergence_of(grid, [stage.axis0] + [flux[..., a] for a in range(1, grid.n)],
                          out=stage.rate, term=stage.term, planes=stage.planes)
    rate += rhs_eval(config.rhs, state.values[first:stop], stage.grad, x[first:stop],
                     state.time, mag=stage.mag, out=stage.term, scratch=stage.scratch)
    return rate


def _d_max(flux: FluxSpec, mag: np.ndarray, scratch: np.ndarray
           ) -> tuple[float, np.ndarray | None]:
    """Largest eigenvalue of dA/dQ over the samples, and the flux coefficient.

    The first is flux_jacobian_bounds' upper max, read at every node, not
    only at the extremes of mag (see the module docstring); a NaN sample
    gives NaN.  The second is the tangential eigenvalue array, which is the
    coefficient flux_eval multiplies Q by, so one pass serves both; scratch
    holds three arrays shaped like mag.  The identity flux needs no pass and
    has no coefficient (None): its pair is (p - 1) * t^0 and t^0 with p = 2,
    and t^0 is 1.0 for every double, NaN and infinities included.
    """
    if flux_mod._is_identity(flux):
        return 1.0, None
    radial, tangential = flux_mod._eigen_pair(flux, mag, out=scratch)
    return float(np.maximum(radial.max(), tangential.max())), tangential


def _advance(state: Field, config: SolveConfig, x: np.ndarray, stage: _Stage, dt: float,
             last_dt: float | None) -> tuple[float, float]:
    """One AB2 step of the slab (Euler without a last step); returns the slab's min and max of u."""
    rate = _rate(state, config, x, stage)
    term = stage.term
    if last_dt is not None:
        np.subtract(stage.prev, rate, out=term)
        term *= -0.5 * dt / last_dt
        term += rate
        term *= dt
    else:
        np.multiply(rate, dt, out=term)
    for plane in stage.frozen:
        plane[...] = -0.0  # u + -0.0 is u, signed zeros included
    part = state.values[slice(*stage.planes)]
    part += term
    stage.rate, stage.prev = stage.prev, rate
    return float(part.min()), float(part.max())


def _screen(lo: float, hi: float, threshold: float) -> StatusKind | None:
    """DIVERGED for a non-finite sample, BLOWUP for one past the threshold, else None.

    lo and hi are the min and max of u: a NaN or an infinity shows in one of
    them, and for finite samples max |u| is max(hi, -lo).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return StatusKind.DIVERGED
    if max(hi, -lo) > threshold:
        return StatusKind.BLOWUP
    return None


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _planned_times(config: SolveConfig) -> np.ndarray:
    """The snapshot times run stores when it completes, bit for bit (t_end = 0 stores one).

    First refuses, from the sizes alone, a run whose stored snapshots would
    take more than the physical memory of this machine: no array is made.
    """
    nodes = math.prod(config.grid.node_shape)
    stored = config.snapshot_count * nodes * config.N * 8
    memory = _physical_memory()
    if memory is not None and stored > memory:
        raise ValueError(f"{config.snapshot_count} snapshots of {nodes} nodes x N = {config.N} "
                         f"take {stored / 2**30:.3g} GiB, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory")
    return np.linspace(0.0, config.t_end, config.snapshot_count if config.t_end > 0.0 else 1)


def _processes(config: SolveConfig) -> int:
    """How many processes march config: see the module docstring."""
    if (config.rhs.kind is RhsKind.MANUFACTURED or not hasattr(os, "sched_getaffinity")
            or os.uname().machine != _STORE_ORDERED or threading.active_count() > 1):
        return 1
    cores = len(os.sched_getaffinity(0)) if _cores is None else _cores
    slabs = math.prod(config.grid.node_shape) * config.N // _MIN_SLAB_VALUES
    return max(1, min(_MAX_PROCESSES, cores, slabs, config.grid.node_shape[0]))


class _Team:
    """The processes one run marches on, each on its own slab of planes along axis 0.

    Entering cuts stage to each child's slab and forks that child; each
    child returns from __enter__ into the caller's block with its own rank
    and slab, and leaves the process when it leaves the block, with
    os._exit.  The parent (rank 0) holds the first slab, and leaving the
    block kills and reaps every child, so none outlives it.  Where a fork
    fails, entering kills and reaps the children made so far and the parent
    holds every plane alone: those children have only read u and written
    their own slab's stage arrays, which the parent rewrites.  sync is the
    one meeting point (see its docstring).
    """

    def __init__(self, stage: _Stage, count: int):
        self.stage, self.count, self.rank, self.passed = stage, count, 0, 0
        planes = stage.u.shape[0]
        self.bounds = [planes * k // count for k in range(count + 1)]
        self.board = _shared((2, count, 3))  # per barrier parity: each slab's posted pair, failed
        self.arrived = np.frombuffer(mmap.mmap(-1, 64 * count), dtype=np.int64)[::8]
        self.parent = os.getpid()
        self.children: dict[int, int] = {}  # rank -> pid

    def __enter__(self) -> "_Team":
        try:
            for rank in range(1, self.count):
                self.stage.cut(*self.bounds[rank:rank + 2])  # the child's slab, inherited
                pid = os.fork()
                if pid == 0:  # nothing here can raise into the caller's frames
                    self.rank, self.children = rank, {}
                    return self
                self.children[rank] = pid
        except OSError:  # no process to be had: march alone
            self._end_children()
            self.count, self.bounds = 1, [0, self.bounds[-1]]
            self.board, self.arrived = self.board[:, :1], self.arrived[:1]
        self.stage.cut(*self.bounds[:2])
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if self.rank:
            os._exit(0 if exc is None else 1)
        self._end_children()

    def _end_children(self) -> None:
        """Kill and reap every child not yet reaped."""
        for pid in self.children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.children = {}

    def sync(self, work, *args) -> np.ndarray:
        """work(*args) on this slab, then the (count, 2) pairs every slab's work returned.

        Each process posts its pair in the board row of the barrier's parity
        and waits until every process has arrived; a process cannot post
        twice more before the slowest has read the row.  An exception in any
        slab's work raises in every process.  The parent raises its own, or
        kills and reaps the children and runs the lowest failing slab's work
        itself, whose inputs are as they were when it raised (see the module
        docstring), so run raises what the serial march raises.
        """
        try:
            pair, failure = work(*args), None
        except Exception as exc:
            pair, failure = (math.nan, math.nan), exc
        row = self.board[self.passed % 2]
        row[self.rank] = (*pair, failure is not None)
        self.passed += 1
        if self.count > 1:
            self._wait()
        failed = np.flatnonzero(row[:, 2])
        if failed.size:
            if self.rank:
                raise RuntimeError("a slab failed")  # the child leaves the process
            if failure is not None:
                raise failure
            first, stop = self.bounds[failed[0]:failed[0] + 2]
            self._end_children()
            self.stage.cut(first, stop)
            work(*args)
            raise RuntimeError(f"the march process of planes {first} to {stop} failed, "
                               "and its slab's work did not fail in the parent")
        return row[:, :2]

    def _wait(self) -> None:
        """Post this arrival and spin until every process has posted it, yielding after _SPINS.

        The posts are plain stores after the slab's own stores; see the
        module docstring for the store order this relies on.
        """
        self.arrived[self.rank] = self.passed
        spins = 0
        while self.arrived.min() < self.passed:
            spins += 1
            if spins > _SPINS:
                os.sched_yield()
                if spins % 1024 == 0:
                    self._check_team()

    def _check_team(self) -> None:
        """A child whose parent is gone leaves; a parent whose child died without arriving raises."""
        if self.rank:
            if os.getppid() != self.parent:
                os._exit(1)
            return
        for rank, pid in self.children.items():
            if self.arrived[rank] < self.passed:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    del self.children[rank]  # reaped: not to be killed
                    raise RuntimeError(f"the march process of planes {self.bounds[rank]} to "
                                       f"{self.bounds[rank + 1]} ended mid-step "
                                       f"(wait status {status})")


def _march(config: SolveConfig, store: Callable[[Field], None]
           ) -> tuple[SolveConfig, np.ndarray, RunStatus]:
    """The march: store(snapshot) for each stored snapshot; returns (config, dt_history, status).

    store gets the initial field, then the state at each planned time the
    march reaches; each snapshot's time is a Python float, bit for bit the
    planned one.  A stored snapshot is a view of the live state, so store
    copies or writes it before it returns.  Only the parent stores, and
    every store after the first runs inside the team, so an exception in
    store kills and reaps the children as any other way out of the march
    does.  The config returned is the effective one, with a singular pure
    flux routed through the regularized family.
    """
    fl = _resolve_flux(config.flux)
    eff = replace(config, flux=fl)
    targets = _planned_times(eff)
    state = initial_field(eff)
    thr = eff.blowup_threshold
    store(state)

    stopped = _screen(float(state.values.min()), float(state.values.max()), thr)
    if stopped is not None:
        return eff, np.array([]), RunStatus(stopped, 0.0)
    if eff.t_end == 0.0:
        return eff, np.array([]), RunStatus(StatusKind.COMPLETED)

    stage = _Stage(eff.grid, eff.N, fl)
    stage.u[...] = state.values
    state = Field(eff.grid, stage.u, 0.0)
    x = node_coords(eff.grid)
    dt_history: list[float] = []
    status = RunStatus(StatusKind.COMPLETED)
    with _Team(stage, _processes(eff)) as team:
        # as Python floats, so every stored time, step and status time is one too
        for target in targets[1:].tolist():
            while state.time < target:
                mag_max, d_max = np.max(team.sync(_flux, state, eff, stage), axis=0)
                if mag_max > thr:
                    status = RunStatus(StatusKind.BLOWUP, state.time)
                    break
                rest = target - state.time
                dt = _next_dt(eff.grid, eff.cfl, eff.dt_max, float(d_max), rest)
                if dt is None:
                    status = RunStatus(StatusKind.DIVERGED, state.time)
                    break
                ends = team.sync(_advance, state, eff, x, stage, dt,
                                 dt_history[-1] if dt_history else None)
                # the last step of an interval lands on the target exactly: no drift at snapshot times
                state.time = target if dt == rest else state.time + dt
                dt_history.append(dt)
                stopped = _screen(float(ends[:, 0].min()), float(ends[:, 1].max()), thr)
                if stopped is not None:
                    status = RunStatus(stopped, state.time)
                    break
            if status.kind is not StatusKind.COMPLETED:
                break
            if team.rank == 0:
                store(state)
    return eff, np.array(dt_history), status


def run(config: SolveConfig) -> RunRecord:
    """March to t_end storing snapshot_count evenly spaced snapshots."""
    snapshots: list[Field] = []
    config, dt_history, status = _march(config, lambda s: snapshots.append(s.copy()))
    return RunRecord(config, snapshots, dt_history, status)


# --- persistence --------------------------------------------------------------


def config_to_dict(config: SolveConfig) -> dict:
    """Each section's fields in declaration order, then the scalars; no rhs source."""
    init = config.initial
    return _Report.to_dict(config) | {
        "grid": _Report.to_dict(config.grid),
        "flux": _Report.to_dict(config.flux),
        "rhs": {k: v for k, v in _Report.to_dict(config.rhs).items() if k != "source"},
        "initial": ({"kind": "random_smooth"} | _Report.to_dict(init)
                    if isinstance(init, RandomSmooth) else {"kind": "prescribed"}),
    }


def _unserializable_source(x, t):
    raise ValueError("manufactured source tables are not persisted; rebuild the problem")


def config_from_dict(d: dict, initial_values: np.ndarray | None = None) -> SolveConfig:
    """Inverse of config_to_dict; prescribed initial data is the stored snapshot 0."""
    g, fl, rd, init = d["grid"], d["flux"], d["rhs"], d["initial"]
    if init["kind"] == "random_smooth":
        initial: InitialData = RandomSmooth(**{k: v for k, v in init.items() if k != "kind"})
    elif initial_values is None:  # "prescribed", or "manufactured" from older records
        raise ValueError("prescribed initial data needs the stored snapshot 0")
    else:
        initial = Prescribed(initial_values)
    rhs_kind = RhsKind(rd["kind"])
    return SolveConfig(**d | {
        "grid": Grid(**g | {"boundary": Boundary(g["boundary"])}),
        "flux": FluxSpec(**fl | {"kind": FluxKind(fl["kind"])}),
        "rhs": RhsSpec(**rd | {
            "kind": rhs_kind,
            "direction": None if rd["direction"] is None else tuple(rd["direction"]),
            "source": _unserializable_source if rhs_kind is RhsKind.MANUFACTURED else None}),
        "initial": initial,
    })


class _Writer:
    """Writes one record into directory: each snapshot as it comes, the rest at the end.

    The status.json and snapshot files a previous record left there are
    removed first, so no two records mix: a write that fails part-way
    leaves no status.json, and load_run refuses the directory.  finish
    writes config.json, dt_history.csv and, last, status.json.
    """

    def __init__(self, directory: str | Path):
        self.root = Path(directory)
        self.times: list[float] = []
        snapshots = self.root / "snapshots"
        snapshots.mkdir(parents=True, exist_ok=True)
        (self.root / "status.json").unlink(missing_ok=True)
        for stale in snapshots.glob("snap_*.bin"):
            stale.unlink()

    def snapshot(self, snap: Field) -> None:
        save_field(snap, self.root / "snapshots" / f"snap_{len(self.times):04d}.bin")
        self.times.append(snap.time)

    def finish(self, config: SolveConfig, dt_history: np.ndarray, status: RunStatus) -> None:
        (self.root / "config.json").write_text(json.dumps(config_to_dict(config), indent=2))
        np.savetxt(self.root / "dt_history.csv", dt_history, header="dt", comments="")
        (self.root / "status.json").write_text(json.dumps(status.to_dict(), indent=2))


def save_run(record: RunRecord, directory: str | Path) -> None:
    """Persist a record: config.json, snapshots/*.bin, dt_history.csv, status.json."""
    writer = _Writer(directory)
    for snap in record.snapshots:
        writer.snapshot(snap)
    writer.finish(record.config, record.dt_history, record.status)


def load_run(directory: str | Path) -> RunRecord:
    root = Path(directory)
    # in index order: the zero-padded names gain a digit past snap_9999
    paths = sorted((root / "snapshots").glob("snap_*.bin"), key=lambda p: (len(p.name), p.name))
    snapshots = [load_field(p) for p in paths]
    config = config_from_dict(json.loads((root / "config.json").read_text()),
                              snapshots[0].values if snapshots else None)
    st = json.loads((root / "status.json").read_text())
    # a run that stopped before its first step saved the header alone
    steps = (root / "dt_history.csv").read_text().splitlines()[1:]
    dts = np.loadtxt(steps, ndmin=1) if steps else np.array([])
    return RunRecord(config, snapshots, dts, RunStatus(**st | {"kind": StatusKind(st["kind"])}))
