"""Source generator for the fused per-tile sweep kernels.

Given a :class:`FusedKernelSpec` this module renders one straight-line
Python function — ``fused_sweep`` — that runs the entire
pad → WENO → limit → Riemann → divergence pipeline of one direction on
one slab tile, against tile-sized scratch arrays the caller provides.
It is the code-emission half of the fusion compiler: the directive-graph
walk in :mod:`repro.acc.fusion.graph` proves the region fusable and
picks the slab axis; this module stitches the stage expressions into
the kernel body the way the paper's Fypp macros inline the WENO and
Riemann subroutines into a single ``parallel loop`` region.

Bitwise contract
----------------
The generated body performs *exactly* the elementwise operations of the
reference pipeline in :mod:`repro.solver.rhs`, in the same order, on the
same operand views:

* the chained WENO arithmetic is rendered line-for-line from the
  declarative op schedules of :mod:`repro.weno.reconstruct`
  (``WENO3_SCHEDULE`` / ``WENO5_SCHEDULE``), which transcribe
  ``_weno{3,5}_into`` ufunc-for-ufunc;
* stage boundaries (positivity limit, Riemann solve) bind the *same*
  callables the reference path calls, so their internals cannot drift;
* the divergence accumulate is the same subtract/divide/accumulate
  ufunc triplet as ``_accumulate_divergence``.

Since every operation is elementwise over faces and the slab axis is
stencil-free in every stage (the graph's legality rule), the fused
per-tile results compose bit-for-bit into the unfused field result.

Shape genericity
----------------
No tile or grid extent appears anywhere in the generated source: slices
are expressed relative to ``nf`` (the face count, recovered from the
padded extent at run time) and the ghost width, which is a literal of
the *spec*, not of any array.  One compiled kernel therefore serves
every tile size, every tile split, and every grid — the compile cache
keys on the spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Re-exported: the knob's table lives with the legality walk, which a
# staged run loads without this generator.
from repro.acc.fusion.graph import FUSION_MODES, validate_fusion  # noqa: F401
from repro.bc.boundary import fill_axis_ghosts
from repro.common import ConfigurationError
from repro.riemann import riemann_expression
from repro.solver.positivity import limit_face_states
from repro.solver.workspace import tile_axes
from repro.weno import halo_width
from repro.weno.coefficients import WENO_EPS
from repro.weno.reconstruct import (
    WENO_SCHEDULE_SCRATCH,
    WENO_SCHEDULE_STENCIL,
    weno_order_check,
    weno_schedule,
)

#: Accepted spellings of a fused kernel's ``kind``: the two values of
#: the sweep-layout knob, which plan one schedule — both render the
#: same source (the tile's axis order is the arena layout rule's).
FUSED_KINDS = ("strided", "transposed")


@dataclass(frozen=True)
class FusedKernelSpec:
    """Everything that distinguishes one compiled fused kernel.

    Tile and grid extents are deliberately absent — the generated source
    is shape-generic — so one spec (and one compiled kernel) covers all
    tiles of a sweep and all grids of the same configuration.
    """

    kind: str  #: one of :data:`FUSED_KINDS`; does not change the source
    pack: bool  #: kernel packs + ghost-fills its own padded block
    ndim: int  #: spatial dimensionality
    d: int  #: reconstruction direction (spatial axis)
    order: int  #: WENO order
    riemann_solver: str
    dtype: str  #: dtype name, part of the cache contract
    #: Ensemble mode: ``ndim``/``d`` are *virtual* (axis 0 of the
    #: spatial shape is a leading batch axis that is never swept), and
    #: the physical direction the Riemann solve and the reflective
    #: ghost fill act on is ``d - 1``.  Part of the compile-cache key.
    batch: bool = False
    weno_variant: str = "chained"  #: one value; benchmarks/e2e/probes.py fusion_probe spells it
    riemann_variant: str = "reference"  #: one value; fusion_probe spells it
    backend: str = "numpy"  #: one value; fusion_probe spells it

    def __post_init__(self) -> None:
        for name, only in (("weno_variant", "chained"),
                           ("riemann_variant", "reference"),
                           ("backend", "numpy")):
            if getattr(self, name) != only:
                raise ConfigurationError(
                    f"fused kernel {name} must be {only!r}, "
                    f"got {getattr(self, name)!r}")
        if self.kind not in FUSED_KINDS:
            raise ConfigurationError(
                f"fused kernel kind must be one of {FUSED_KINDS}, "
                f"got {self.kind!r}")
        if not 0 <= self.d < self.ndim:
            raise ConfigurationError(
                f"direction {self.d} outside {self.ndim} dims")
        if self.batch and self.d < 1:
            raise ConfigurationError(
                "batched fused kernels cannot sweep the batch axis (d=0)")
        weno_order_check(self.order)
        np.dtype(self.dtype)  # validates


class FusionContext:
    """Runtime bindings of one fused kernel: layout, EOS, Riemann flux.

    Passed as the kernel's first argument so the generated source stays
    free of problem-specific objects (only literals and array names).
    """

    __slots__ = ("layout", "mixture", "riemann")

    def __init__(self, layout, mixture, riemann) -> None:
        self.layout = layout
        self.mixture = mixture
        self.riemann = riemann


def make_context(layout, mixture, spec: FusedKernelSpec) -> FusionContext:
    """Bind a spec's Riemann kernel into a :class:`FusionContext`."""
    _, fn = riemann_expression(spec.riemann_solver)
    return FusionContext(layout, mixture, fn)


def exec_namespace() -> dict:
    """The globals the generated kernels run against.

    The stage-boundary callables are bound here once — the *same*
    objects the reference pipeline calls — so generated kernels can
    never diverge from the reference implementations of the ghost fill
    or the positivity limit.
    """
    return {
        "np": np,
        "fill_ghosts": fill_axis_ghosts,
        "limit": limit_face_states,
        "EPS": WENO_EPS,
    }


def _index(naxes: int, axis: int, sl: str) -> str:
    """A literal subscript selecting ``sl`` on ``axis`` of ``naxes`` axes."""
    parts = [":"] * naxes
    parts[axis] = sl
    return "[" + ", ".join(parts) + "]"


def _stencil_slice(start: int) -> str:
    if start == 0:
        return "pv[..., :nf]"
    return f"pv[..., {start}:nf + {start}]"


def _operand(sym, out_name: str) -> str:
    if isinstance(sym, str):
        return out_name if sym == "out" else sym
    return repr(sym)


def _schedule_lines(schedule, out_name: str) -> list[str]:
    """Render one WENO op schedule as source lines (ufunc per line)."""
    lines = []
    for op, a, b, out in schedule:
        target = _operand(out, out_name)
        if b is None:
            lines.append(f"np.{op}({_operand(a, out_name)}, out={target})")
        else:
            lines.append(f"np.{op}({_operand(a, out_name)}, "
                         f"{_operand(b, out_name)}, out={target})")
    return lines


def _weno_lines(spec: FusedKernelSpec, ng: int) -> list[str]:
    """The reconstruction block: both sides, left then right.

    Mirrors ``reconstruct_faces``'s two ``_faces_into`` calls exactly:
    left faces reconstruct upwind from cell ``ng-1`` (stencil offsets
    applied directly), right faces downwind from cell ``ng`` (offsets
    mirrored), scratch shared between the sides.
    """
    order = spec.order
    lines = []
    if order == 1:
        lines.append(f"np.copyto(vlL, {_stencil_slice(ng - 1)})")
        lines.append(f"np.copyto(vrL, {_stencil_slice(ng)})")
        return lines
    scratch = WENO_SCHEDULE_SCRATCH[order]
    stencil = WENO_SCHEDULE_STENCIL[order]
    schedule = weno_schedule(order)
    lines.append(f"{', '.join(scratch)} = wscr[:{len(scratch)}]")
    for side, out_name in (("left", "vlL"), ("right", "vrL")):
        lines.append(f"# {side} faces")
        for name, off in stencil:
            start = (ng - 1 + off) if side == "left" else (ng - off)
            lines.append(f"{name} = {_stencil_slice(start)}")
        lines.extend(_schedule_lines(schedule, out_name))
    return lines


def _divergence_lines(arr: int, ax: int) -> list[str]:
    """The two ``accumulate_divergence`` triplets, ufunc for ufunc, on
    tile array axis ``ax`` (``ax - 1`` of the interface velocity)."""
    return [
        f"np.subtract(flux{_index(arr, ax, '1:')}, "
        f"flux{_index(arr, ax, ':-1')}, out=dscr)",
        "np.true_divide(dscr, width, out=dscr)",
        "np.subtract(dqdt, dscr, out=dqdt)",
        f"np.subtract(uface{_index(arr - 1, ax - 1, '1:')}, "
        f"uface{_index(arr - 1, ax - 1, ':-1')}, out=dvscr)",
        "np.true_divide(dvscr, width, out=dvscr)",
        "np.add(divu, dvscr, out=divu)",
    ]


def kernel_signature(spec: FusedKernelSpec) -> tuple[str, ...]:
    """Argument names of the generated ``fused_sweep``, in order."""
    if spec.pack:
        return ("ctx", "prim", "pad", "vl", "vr", "flux", "uface", "wscr",
                "rscr", "dscr", "dvscr", "dqdt", "divu", "width",
                "bc_lo", "bc_hi")
    return ("ctx", "pad", "vl", "vr", "flux", "uface", "wscr", "rscr",
            "dscr", "dvscr", "dqdt", "divu", "width")


def generate_source(spec: FusedKernelSpec) -> str:
    """Render the fused kernel source for ``spec``.

    The returned module source defines one function, ``fused_sweep``,
    returning the count of positivity-limited faces in the tile.  Every
    array operand is in the tile's axis order
    (:func:`~repro.solver.workspace.tile_axes`): the caller hands the
    trailing direction's ``prim``/``dqdt``/``divu``/``width`` in as
    views of that order, so the kernel's first line is the gather.
    """
    ng = halo_width(spec.order)
    d, ndim, arr = spec.d, spec.ndim, spec.ndim + 1
    axes = tile_axes(ndim, d)
    ax = axes.index(d + 1)  # tile array axis reconstructed
    # Batched sweeps: axis indexing stays virtual, but the momentum
    # component the Riemann solve and the reflective ghost fill act on
    # is the physical direction d-1 (axis 0 is the batch axis).
    phys = d - 1 if spec.batch else d
    qualname, _ = riemann_expression(spec.riemann_solver)
    body: list[str] = []
    if spec.pack:
        body.append(f"pad{_index(arr, ax, f'{ng}:-{ng}')} = prim")
        body.append(f"fill_ghosts(pad, ctx.layout, {ax - 1}, {ng}, "
                    f"bc_lo, bc_hi, normal_direction={phys})")
    if ax == arr - 1:
        body += ["pv = pad", "vlL = vl", "vrL = vr"]
    else:
        body += [f"pv = np.moveaxis(pad, {ax}, -1)",
                 f"vlL = np.moveaxis(vl, {ax}, -1)",
                 f"vrL = np.moveaxis(vr, {ax}, -1)"]
    body.append(f"nf = pv.shape[-1] - {2 * ng - 1}")
    body += _weno_lines(spec, ng)
    body.append(f"limited = limit(ctx.layout, ctx.mixture, pad, "
                f"vl, vr, {ax - 1}, {ng}, scratch=rscr)")
    body.append(f"ctx.riemann(ctx.layout, ctx.mixture, vl, vr, {phys}, "
                f"out=flux, out_u=uface, scratch=rscr)")
    body += _divergence_lines(arr, ax)
    body.append("return limited")

    args = ", ".join(kernel_signature(spec))
    header = [
        f"# fused sweep: d={d}/{ndim}D"
        f"{' (batched: axis 0 = ensemble)' if spec.batch else ''}, "
        f"tile axes {axes}, order {spec.order}, riemann {qualname}, "
        f"dtype {spec.dtype}",
        f"def fused_sweep({args}):",
    ]
    return "\n".join(header + [f"    {line}" for line in body]) + "\n"
