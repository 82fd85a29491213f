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

Each step evaluates one stage, _rate, into a workspace allocated once per
run and rewritten every step, through the kernels' out= arguments: the same
arithmetic as their fresh-array calls, so records are bit-identical to
them.  The update runs in place in the stage's term buffer as
term = F_{n-1} - F_n; term *= -w/2; term += F_n; term *= dt; u += term,
and then the rate and history buffers swap references, so no array is
copied or allocated.  On Dirichlet grids term's boundary planes are set to
-0.0 before it is added: u + -0.0 is u for every u, signed zeros included,
so every boundary sample stays bit-equal whatever the stencil gave there.

The gradient buffer is axis-major, (n, *node_shape, N) seen as
(*node_shape, N, n), so each axis's derivative is written, and each flux
slot read by the divergence, contiguously; the flux gets a buffer of the
same layout unless it is the identity (pure p = 2).  D_max reads the two
Jacobian eigenvalues at every node into the workspace's scratch.  Both are
monotone in |Q| for p >= 2, and for double power with p < 2 their sum has
one interior minimum, so in real arithmetic the max sits at the smallest or
largest |Q|; in floating point a node one ulp inside an extreme can round
one ulp above it (regularized p = 2.5, double power p = 1.2), so the
two-extremes shortcut would move dt and is not taken.  The status check
reads one min and one max of u: a non-finite extreme is Diverged, and
max(max, -min) past the threshold is BlowupDetected.

Every kernel on the step's path runs long inner loops: one numpy call per
component or per axis slot, and the stencil interior as one flat shifted
subtract.  A broadcast over the trailing component axis (N = 1 to 3) or a
slice of the last spatial axis makes numpy run one short inner loop per
node or per row, and its per-loop overhead then costs more than the
arithmetic.  The arithmetic and its order are those of the broadcast, so
the bits are the same.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from . import flux as flux_mod
from .flux import FluxKind, FluxSpec, RhsKind, RhsSpec, flux_eval, rhs_eval
from .mesh import (
    Boundary,
    Field,
    Grid,
    divergence,
    grad_magnitude,
    gradient_of,
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
    cylinder checks' private stack of box |grad u| per snapshot
    (energy._Window), which stays true only while no stored snapshot is
    written.  A copied or unpickled record is rebuilt through __init__, so
    it is read-only too and starts with an empty stack.
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

    rng = np.random.default_rng(init.seed)
    x = node_coords(grid)
    vals = np.zeros(grid.node_shape + (config.N,))
    m = init.modes
    if grid.boundary is Boundary.PERIODIC:
        ks = [k for k in np.ndindex(*([m + 1] * grid.n)) if any(k)]
        for comp in range(config.N):
            for k in ks:
                coeff = rng.standard_normal() / (1.0 + sum(ki * ki for ki in k)) ** 2
                phase = rng.uniform(0.0, 2.0 * math.pi)
                arg = phase
                for a, ka in enumerate(k):
                    arg = arg + (2.0 * math.pi * ka / grid.extent[a]) * x[..., a]
                vals[..., comp] += coeff * np.cos(arg)
    else:
        ks = list(np.ndindex(*([m] * grid.n)))
        for comp in range(config.N):
            for k in ks:
                coeff = rng.standard_normal() / (1.0 + sum((ki + 1) ** 2 for ki in k)) ** 2
                term = np.ones(grid.node_shape)
                for a, ka in enumerate(k):
                    term = term * np.sin(math.pi * (ka + 1) / grid.extent[a] * x[..., a])
                vals[..., comp] += coeff * term
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
    """The arrays one _rate evaluation writes, allocated once per run.

    grad is an (*node_shape, N, n) view of an axis-major (n, *node_shape, N)
    buffer, so each axis's derivative and each flux slot the divergence reads
    is contiguous.  flux is None for the identity flux, whose flux_eval
    returns grad itself.  rate receives this step's rate and prev holds the
    last step's; run swaps the two after each step.  term holds each
    divergence part, then f, then the step's increment; frozen lists term's
    boundary planes on Dirichlet grids (none on periodic ones) as views made
    once, which a fill runs through faster than a fancy index.  scratch holds
    three node-shaped arrays for the kernels' per-node factors.
    """

    __slots__ = ("grad", "mag", "flux", "rate", "prev", "term", "frozen", "scratch")

    def __init__(self, grid: Grid, N: int, flux: FluxSpec):
        nodes = grid.node_shape
        self.grad = np.moveaxis(np.empty((grid.n,) + nodes + (N,)), 0, -1)
        self.mag = np.empty(nodes)
        self.flux = None if flux_mod._is_identity(flux) else np.empty_like(self.grad)
        self.rate = np.empty(nodes + (N,))
        self.prev = np.empty_like(self.rate)
        self.term = np.empty_like(self.rate)
        self.frozen = [] if grid.boundary is Boundary.PERIODIC else [
            self.term[(slice(None),) * a + (side,)] for a in range(grid.n) for side in (0, -1)]
        self.scratch = np.empty((3,) + nodes)


def _rate(state: Field, config: SolveConfig, x: np.ndarray, stage: _Stage
          ) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side div A(grad u) + f of the semi-discrete system at state.

    Returns the rate and the gradient magnitude it was built from, both
    arrays of stage.  On Dirichlet grids the rate's boundary planes hold
    whatever the stencil gives there: run freezes the planes of the increment.
    """
    grid, scratch = state.grid, stage.scratch
    grad = gradient_of(grid, state.values, out=stage.grad)
    mag = grad_magnitude(grad, out=stage.mag, scratch=scratch)
    flux = flux_eval(config.flux, grad, mag=mag, out=stage.flux, scratch=scratch)
    rate = divergence(grid, flux, out=stage.rate, part=stage.term)
    rate += rhs_eval(config.rhs, state.values, grad, x, state.time, mag=mag,
                     out=stage.term, scratch=scratch)
    return rate, mag


def _d_max(flux: FluxSpec, mag: np.ndarray, scratch: np.ndarray) -> float:
    """Largest eigenvalue of dA/dQ over the samples: flux_jacobian_bounds' upper max.

    Evaluated at every node, not only at the extremes of mag (see the module
    docstring); scratch holds three arrays shaped like mag.  The identity
    flux needs no pass: its pair is (p - 1) * t^0 and t^0 with p = 2, and
    t^0 is 1.0 for every double, NaN and infinities included.
    """
    if flux_mod._is_identity(flux):
        return 1.0
    radial, tangential = flux_mod._eigen_pair(flux, mag, out=scratch)
    return float(np.maximum(radial.max(), tangential.max()))


def _screen(values: np.ndarray, threshold: float) -> StatusKind | None:
    """DIVERGED for a non-finite sample, BLOWUP for one past the threshold, else None.

    A NaN or an infinity shows in the min or the max; for finite samples
    max |u| is max(hi, -lo).
    """
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return StatusKind.DIVERGED
    if max(hi, -lo) > threshold:
        return StatusKind.BLOWUP
    return None


def _planned_times(config: SolveConfig) -> np.ndarray:
    """The snapshot times run stores when it completes, bit for bit (t_end = 0 stores one)."""
    return np.linspace(0.0, config.t_end, config.snapshot_count if config.t_end > 0.0 else 1)


def run(config: SolveConfig) -> RunRecord:
    """March to t_end storing snapshot_count evenly spaced snapshots."""
    fl = _resolve_flux(config.flux)
    eff = replace(config, flux=fl)
    state = initial_field(eff)
    x = node_coords(eff.grid)
    thr = eff.blowup_threshold
    dt_history: list[float] = []

    stopped = _screen(state.values, thr)
    if stopped is not None:
        return RunRecord(eff, [state], np.array([]), RunStatus(stopped, 0.0))
    if eff.t_end == 0.0:
        return RunRecord(eff, [state], np.array([]), RunStatus(StatusKind.COMPLETED))

    targets = _planned_times(eff)
    snapshots = [state.copy()]
    status = RunStatus(StatusKind.COMPLETED)
    stage = _Stage(eff.grid, eff.N, fl)

    for target in targets[1:]:
        while state.time < target:
            rate, mag = _rate(state, eff, x, stage)
            if float(mag.max()) > thr:
                status = RunStatus(StatusKind.BLOWUP, state.time)
                break
            rest = target - state.time
            dt = _next_dt(eff.grid, eff.cfl, eff.dt_max, _d_max(fl, mag, stage.scratch), rest)
            if dt is None:
                status = RunStatus(StatusKind.DIVERGED, state.time)
                break
            term = stage.term
            if dt_history:
                np.subtract(stage.prev, rate, out=term)
                term *= -0.5 * dt / dt_history[-1]
                term += rate
                term *= dt
            else:  # the first step is Euler
                np.multiply(rate, dt, out=term)
            for plane in stage.frozen:
                plane[...] = -0.0  # u + -0.0 is u, signed zeros included
            state.values += term
            stage.rate, stage.prev = stage.prev, rate
            # the last step of an interval lands on the target exactly: no drift at snapshot times
            state.time = target if dt == rest else state.time + dt
            dt_history.append(dt)
            stopped = _screen(state.values, thr)
            if stopped is not None:
                status = RunStatus(stopped, state.time)
                break
        if status.kind is not StatusKind.COMPLETED:
            break
        snapshots.append(state.copy())
    return RunRecord(eff, snapshots, np.array(dt_history), status)


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


def save_run(record: RunRecord, directory: str | Path) -> None:
    """Persist a record: config.json, snapshots/*.bin, dt_history.csv, status.json."""
    root = Path(directory)
    (root / "snapshots").mkdir(parents=True, exist_ok=True)
    (root / "config.json").write_text(json.dumps(config_to_dict(record.config), indent=2))
    (root / "status.json").write_text(json.dumps(record.status.to_dict(), indent=2))
    np.savetxt(root / "dt_history.csv", record.dt_history, header="dt", comments="")
    for k, snap in enumerate(record.snapshots):
        save_field(snap, root / "snapshots" / f"snap_{k:04d}.bin")


def load_run(directory: str | Path) -> RunRecord:
    root = Path(directory)
    snapshots = [load_field(p) for p in sorted((root / "snapshots").glob("snap_*.bin"))]
    config = config_from_dict(json.loads((root / "config.json").read_text()),
                              snapshots[0].values if snapshots else None)
    st = json.loads((root / "status.json").read_text())
    dts = np.loadtxt(root / "dt_history.csv", skiprows=1, ndmin=1)
    return RunRecord(config, snapshots, dts, RunStatus(**st | {"kind": StatusKind(st["kind"])}))
