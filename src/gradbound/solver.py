"""Explicit finite-difference marching for the quasilinear parabolic system.

    d_t u^i = div A^i(grad u) + f^i(x, t, u, grad u)

Forward Euler in time with the adjoint central-difference divergence in
space.  The step size obeys the diffusion stability limit

    dt = cfl * min_axis(h^2) / (2 n D_max),

where D_max is the largest eigenvalue of the flux Jacobian over the current
gradient samples, capped at dt_max; a step-size floor of 1e-12 marks the run
Diverged rather than stalling.  A run stores snapshot_count evenly spaced
snapshots and reports Completed, BlowupDetected (any |u| or |grad u| sample
beyond the threshold), or Diverged (non-finite samples or floored dt).
Identical configs, including the seed, reproduce bitwise-identical records.
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
    gradient,
    node_coords,
    save_field,
    load_field,
)

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


@dataclass(frozen=True)
class RandomSmooth:
    """Finite Fourier-mode combination with decaying spectrum, linear in amplitude."""

    seed: int
    amplitude: float = 1.0
    modes: int = 2


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


class StatusKind(enum.Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class RunStatus:
    kind: StatusKind
    time: float | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "time": self.time}


class RunRecord:
    """Time-ordered snapshots plus step history and the final status."""

    __slots__ = ("config", "snapshots", "dt_history", "status")

    def __init__(self, config: SolveConfig, snapshots: list[Field],
                 dt_history: np.ndarray, status: RunStatus):
        self.config = config
        self.snapshots = snapshots
        self.dt_history = np.asarray(dt_history, dtype=np.float64)
        self.status = status

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


def _dt_from_eigen(grid: Grid, cfl: float, dt_max: float, d_max: float) -> float:
    h2 = min(h * h for h in grid.h)
    if d_max <= 0.0:
        return dt_max
    return min(cfl * h2 / (2.0 * grid.n * d_max), dt_max)


def _rate(state: Field, config: SolveConfig, x: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand side div A(grad u) + f of the semi-discrete system at state.

    Returns the rate with the gradient and its magnitude it was built from.
    On Dirichlet grids the rate is -0.0 on the boundary planes: adding it
    leaves every boundary sample bit-equal, signed zeros included.
    """
    grad = gradient(state)
    mag = grad_magnitude(grad)
    rate = divergence(state.grid, flux_eval(config.flux, grad, mag=mag))
    rate += rhs_eval(config.rhs, state.values, grad, x, state.time, mag=mag)
    if state.grid.boundary is Boundary.DIRICHLET:
        for a in range(state.grid.n):
            planes = [slice(None)] * rate.ndim
            planes[a] = [0, -1]
            rate[tuple(planes)] = -0.0
    return rate, grad, mag


def run(config: SolveConfig) -> RunRecord:
    """March to t_end storing snapshot_count evenly spaced snapshots."""
    fl = _resolve_flux(config.flux)
    eff = replace(config, flux=fl)
    state = initial_field(eff)
    x = node_coords(eff.grid)
    thr = eff.blowup_threshold
    dt_history: list[float] = []

    if not state.is_finite():
        return RunRecord(eff, [state], np.array([]), RunStatus(StatusKind.DIVERGED, 0.0))
    if float(np.abs(state.values).max()) > thr:
        return RunRecord(eff, [state], np.array([]), RunStatus(StatusKind.BLOWUP, 0.0))
    if eff.t_end == 0.0:
        return RunRecord(eff, [state], np.array([]), RunStatus(StatusKind.COMPLETED))

    targets = np.linspace(0.0, eff.t_end, eff.snapshot_count)
    snapshots = [state.copy()]
    status = RunStatus(StatusKind.COMPLETED)

    for target in targets[1:]:
        while state.time < target:
            rate, grad, mag = _rate(state, eff, x)
            if float(mag.max()) > thr:
                status = RunStatus(StatusKind.BLOWUP, state.time)
                break
            # both bounds stay alive until the next step's replace them: held
            # across the next _rate, they keep the top of malloc's heap in use,
            # so freeing the step's arrays below does not trim it.  Freed here
            # instead, they made the march fault its heap pages in every step
            # (14x the page faults, ~1.5x the march time on 32^3).
            _, upper = flux_mod.flux_jacobian_bounds(fl, grad, mag=mag)
            dt_stab = _dt_from_eigen(eff.grid, eff.cfl, eff.dt_max, float(upper.max()))
            if dt_stab < DT_FLOOR:
                status = RunStatus(StatusKind.DIVERGED, state.time)
                break
            clipped = dt_stab >= target - state.time
            dt = target - state.time if clipped else dt_stab
            rate *= dt
            state.values += rate
            # free this step's arrays before the next _rate allocates its own;
            # holding them across that call made malloc hand heap pages back to
            # the OS and fault them in again every step (10x the page faults)
            del rate, grad, mag
            # a clipped step lands on the target exactly: no drift at snapshot times
            state.time = target if clipped else state.time + dt
            dt_history.append(dt)
            if not state.is_finite():
                status = RunStatus(StatusKind.DIVERGED, state.time)
                break
            if float(np.abs(state.values).max()) > thr:
                status = RunStatus(StatusKind.BLOWUP, state.time)
                break
        if status.kind is not StatusKind.COMPLETED:
            break
        snapshots.append(state.copy())
    return RunRecord(eff, snapshots, np.array(dt_history), status)


# --- persistence --------------------------------------------------------------


def _initial_to_dict(init: InitialData) -> dict:
    if isinstance(init, RandomSmooth):
        return {"kind": "random_smooth", "seed": init.seed,
                "amplitude": init.amplitude, "modes": init.modes}
    return {"kind": "prescribed"}


def config_to_dict(config: SolveConfig) -> dict:
    g, fl, rhs = config.grid, config.flux, config.rhs
    d = {
        "grid": {"n": g.n, "extent": list(g.extent), "cells": list(g.cells),
                 "boundary": g.boundary.value},
        "flux": {"kind": fl.kind.value, "p": fl.p, "q": fl.q, "eps": fl.eps},
        "rhs": {"kind": rhs.kind.value, "w": rhs.w, "c1": rhs.c1, "c2": rhs.c2,
                "direction": list(rhs.direction) if rhs.direction else None},
        "initial": _initial_to_dict(config.initial),
        "N": config.N,
        "t_end": config.t_end,
        "cfl": config.cfl,
        "dt_max": config.dt_max,
        "snapshot_count": config.snapshot_count,
        "blowup_threshold": config.blowup_threshold,
    }
    return d


def _unserializable_source(x, t):
    raise ValueError("manufactured source tables are not persisted; rebuild the problem")


def config_from_dict(d: dict, initial_values: np.ndarray | None = None) -> SolveConfig:
    g = Grid(d["grid"]["n"], tuple(d["grid"]["extent"]), tuple(d["grid"]["cells"]),
             Boundary(d["grid"]["boundary"]))
    fq = d["flux"]["q"]
    fl = FluxSpec(FluxKind(d["flux"]["kind"]), d["flux"]["p"],
                  q=None if fq is None or fq == d["flux"]["p"] else fq,
                  eps=d["flux"]["eps"])
    rd = d["rhs"]
    rhs_kind = RhsKind(rd["kind"])
    rhs = RhsSpec(rhs_kind, w=rd["w"], c1=rd["c1"], c2=rd["c2"],
                  direction=tuple(rd["direction"]) if rd.get("direction") else None,
                  source=_unserializable_source if rhs_kind is RhsKind.MANUFACTURED else None)
    idict = d["initial"]
    if idict["kind"] == "random_smooth":
        init: InitialData = RandomSmooth(idict["seed"], idict["amplitude"], idict["modes"])
    else:
        # "prescribed", or "manufactured" from records written before the two merged
        if initial_values is None:
            raise ValueError("prescribed initial data needs the stored snapshot 0")
        init = Prescribed(initial_values)
    return SolveConfig(grid=g, flux=fl, rhs=rhs, initial=init, N=d["N"],
                       t_end=d["t_end"], cfl=d["cfl"], dt_max=d["dt_max"],
                       snapshot_count=d["snapshot_count"],
                       blowup_threshold=d["blowup_threshold"])


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
    paths = sorted((root / "snapshots").glob("snap_*.bin"))
    snapshots = [load_field(p) for p in paths]
    cfg_d = json.loads((root / "config.json").read_text())
    config = config_from_dict(cfg_d, initial_values=snapshots[0].values if snapshots else None)
    st = json.loads((root / "status.json").read_text())
    dt_hist = np.loadtxt(root / "dt_history.csv", skiprows=1, ndmin=1)
    return RunRecord(config, snapshots, dt_hist, RunStatus(StatusKind(st["kind"]), st["time"]))
