"""One options object: every run-time knob, declared once.

:class:`SolverOptions` is the frozen record of *how* a case is marched
(numerics stay in :class:`~repro.solver.rhs.RHSConfig`).  Each field is
one :func:`knob` declaration and the rest is derived from those: keyword
validation, the ``"solver"`` section parser (:meth:`~SolverOptions.
from_mapping`), the argparse flags (:func:`add_cli_flags`), the "CLI
beats file" rule (:meth:`~SolverOptions.overridden_by`) and DESIGN.md's
reference table.  Knob *combinations* no driver runs are :data:`REFUSALS`.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from repro.backend import BACKEND_NAMES, PRECISIONS, Backend, resolve_backend
from repro.common import ConfigurationError
from repro.common.checks import choice, integer, optional, path, real
from repro.solver.resilience import RetryPolicy
from repro.solver.sweep import FUSION_MODES, SWEEP_LAYOUTS
from repro.timestepping.ssp_rk import SSP_SCHEMES
from repro.tuning.plan import TuningPlan

_ALL, _RUN, _BATCHED = ("run", "ensemble", "tune"), ("run",), ("run", "ensemble")


def knob(default, check, help, on=(), *, key="", flag="", from_cli=None, **cli):
    """One knob: ``check(label, value)`` normalises or raises; sub-commands
    ``on`` read its case-file ``key`` (default the field name, None for none)
    and take its ``flag`` (default from the key; ``add_argument`` extras in
    ``cli``; ``from_cli(given, current)`` when the flag is not the value)."""
    return dataclasses.field(default=default, metadata=dict(
        check=check, help=help, on=on, key=key, flag=flag, from_cli=from_cli,
        cli=cli))


def _retries(count, policy):
    """``--retries N``: N retries of the file's (else the default) policy."""
    policy = policy or RetryPolicy()
    return dataclasses.replace(
        policy, max_retries=count,
        same_dt_retries=min(policy.same_dt_retries, count))


def _tuning(label, value):
    if isinstance(value, dict):
        return TuningPlan.from_dict({"source": "manual", **value})
    if isinstance(value, TuningPlan):
        return value
    return choice("off", "auto")(f"{label} (else a plan mapping)",
                                 "off" if value is None else value)


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """How to march a case; DESIGN.md "Options: one table" is the reference."""

    cfl: float = knob(
        0.5, real(lambda v: 0 < v <= 1, "a number in (0, 1]"),
        "CFL number of adaptive stepping", _BATCHED, key=None, type=float)
    rk_order: int = knob(3, choice(*SSP_SCHEMES), "SSP-RK order (MFC uses 3)")
    fixed_dt: float | None = knob(
        None, lambda label, v: v, "fixed step; None steps at the CFL bound")
    check_every: int = knob(
        10, integer(0), "validate the state every N steps; 0 never (the "
        "durable ensemble service defaults to 1)")
    use_workspace: bool = knob(
        True, choice(True, False), "preallocate every RHS/RK buffer once; "
        "False is the allocating reference path (bitwise identical)")
    threads: int | None = knob(
        None, optional(integer(1)), "gang width of the tiled RHS, forked "
        "workers included; None plans it from cores x tiles", _ALL, type=int)
    ranks: int = knob(
        1, integer(1), "processes of a block-decomposed run with "
        "shared-memory halos; 1 marches in-process", _RUN, type=int)
    cluster_timeout: float = knob(
        30.0, real(lambda v: v > 0, "a positive number"), "halo-wait / "
        "no-progress deadline (s) of a multi-process run", _RUN, type=float)
    max_restarts: int = knob(
        1, integer(0), "rank-failure restarts from the newest common "
        "checkpoint a multi-process run may attempt", _RUN, type=int)
    tile_device: object = knob(
        None, lambda label, v: v, "DeviceSpec or catalog name whose L2 "
        "sizes the tiles; None is the host's")
    sweep_layout: str = knob(
        "strided", choice(*SWEEP_LAYOUTS), "memory layout "
        "of the direction sweeps (a driver's .layout is the state layout)",
        _ALL, key="layout", choices=SWEEP_LAYOUTS)
    fusion: str = knob(
        "off", choice(*FUSION_MODES), "sweep kernel fusion: one "
        "cached per-tile kernel per sweep (on), or where possible (auto)",
        _BATCHED, choices=FUSION_MODES)
    retry: RetryPolicy | None = knob(
        None, optional(lambda label, v: v if isinstance(v, RetryPolicy)
                        else RetryPolicy.from_dict(v)),
        "rollback-retry guard of every step: a RetryPolicy or its mapping "
        "(--retries N sets its max_retries)", _RUN, flag="--retries",
        type=int, from_cli=_retries)
    validate_every: int = knob(
        0, integer(0), "extra state validation every N steps of run(); "
        "0 off", _RUN, type=int)
    checkpoint_every: int = knob(
        0, integer(0), "rotating durable checkpoint every N steps; 0 off",
        _RUN, type=int)
    checkpoint_dir: object = knob(
        None, optional(path), "directory of the rotating checkpoints", _RUN)
    checkpoint_keep: int = knob(
        3, integer(1), "rotating checkpoints to retain", _RUN, type=int)
    tuning: object = knob(
        "off", _tuning, "execution plan: off, auto (the cached autotuner; "
        "--tune) or a hand-picked plan mapping", _BATCHED, flag="--tune",
        action="store_true", from_cli=lambda given, current: "auto")
    tuning_cache: object = knob(
        None, optional(path), "tuning-cache file; None is "
        "$REPRO_TUNING_CACHE, else .repro_tuning/cache.json", _ALL)
    backend: object = knob(
        None, optional(lambda label, v: v if isinstance(v, Backend)
                        else choice(*BACKEND_NAMES)(label, v)),
        "execution backend of the kernels (torch/cupy need the package); "
        "None is numpy", _BATCHED, choices=BACKEND_NAMES)
    precision: str = knob(
        "float64", choice(*PRECISIONS), "state precision; float32 is a "
        "validated-tolerance mode, not bitwise", _RUN, choices=PRECISIONS)

    def __post_init__(self) -> None:
        for f in KNOBS:
            object.__setattr__(self, f.name, f.metadata["check"](
                f.name, getattr(self, f.name)))

    @classmethod
    def from_mapping(cls, section, *, command: str = "run"):
        """Options from a spec's ``"solver"`` section (None = defaults),
        restricted to the keys ``command`` takes; errors name the key."""
        if not isinstance(section, dict | None):
            raise ConfigurationError(
                f"'solver' section must be a mapping, got {section!r}")
        section, by_key = section or {}, section_keys(command)
        unknown = sorted(set(section) - set(by_key))
        if unknown:
            raise ConfigurationError(
                f"unknown {command} solver option(s) {unknown}; "
                f"choose from {sorted(by_key)}")
        return cls(**{by_key[key].name: by_key[key].metadata["check"](
            f"solver {key}", value) for key, value in section.items()})

    def overridden_by(self, args) -> "SolverOptions":
        """The one "CLI beats file" rule: every knob flag of ``args.command``
        given on the command line replaces the value held here."""
        changes = {}
        for f in knobs_of(args.command):
            dest = spelling(f)[1][2:].replace("-", "_")  # argparse's own
            given, convert = getattr(args, dest), f.metadata["from_cli"]
            if given is not None:
                changes[f.name] = convert(given, getattr(self, f.name)) \
                    if convert else given
        return dataclasses.replace(self, **changes)

    def only(self, command: str) -> "SolverOptions":
        """The knobs ``command`` takes; every other one at its default."""
        return fold(None, {f.name: getattr(self, f.name)
                           for f in knobs_of(command)})

    def require_compatible(self, *, fault_injector=None, callback=None,
                           rank_fault=None, batched=False) -> None:
        """Raise the reason of the first of :data:`REFUSALS` that holds for
        these options and what else the driver holds (the keywords)."""
        o = SimpleNamespace(**vars(self), fault_injector=fault_injector,
                            callback=callback, rank_fault=rank_fault,
                            batched=batched)
        for refused, reason in REFUSALS:
            if refused(o):
                raise ConfigurationError(reason)


KNOBS = dataclasses.fields(SolverOptions)


def fold(options: SolverOptions | None, knobs: dict) -> SolverOptions:
    """``options`` (else the defaults) with loose keyword knobs folded in."""
    return dataclasses.replace(options or SolverOptions(), **knobs)


class KnobAccess:
    """Driver mixin: ``sim.fusion`` / ``sim.fixed_dt = 1e-3`` go via ``options``."""

    def __getattr__(self, name):
        if name in SolverOptions.__dataclass_fields__ and "options" in vars(self):
            return getattr(self.options, name)
        raise AttributeError(name)

    def __setattr__(self, name, value):
        if name in SolverOptions.__dataclass_fields__:
            name, value = "options", fold(self.options, {name: value})
        object.__setattr__(self, name, value)


def knobs_of(command: str) -> list:
    return [f for f in KNOBS if command in f.metadata["on"]]


def spelling(f) -> tuple:
    """``(case-file key or None, CLI flag)`` of a knob some command takes."""
    key = f.name if f.metadata["key"] == "" else f.metadata["key"]
    return key, f.metadata["flag"] or "--" + (key or f.name).replace("_", "-")


def section_keys(command: str = "run") -> dict:
    """``{case-file key: field}`` of the ``"solver"`` keys ``command`` reads."""
    return {spelling(f)[0]: f for f in knobs_of(command) if spelling(f)[0]}


def add_cli_flags(parser, command: str) -> None:
    """Generate ``command``'s knob flags (absent = keep the file's value)."""
    for f in knobs_of(command):
        parser.add_argument(spelling(f)[1], default=None,
                            help=f.metadata["help"], **f.metadata["cli"])


#: Knob combinations no driver runs: ``(refused(namespace), reason)``.
REFUSALS = (
    (lambda o: o.checkpoint_every and o.checkpoint_dir is None,
     "checkpoint_every requires a checkpoint_dir"),
    (lambda o: o.ranks > 1 and (o.threads or 1) > 1,
     "ranks > 1 is incompatible with threads > 1 (pick one parallel backend)"),
    (lambda o: o.ranks > 1 and o.precision != "float64",
     "ranks > 1 marches in float64 (cluster workers are not "
     "precision-aware); drop precision or ranks"),
    (lambda o: o.ranks > 1 and resolve_backend(o.backend).name != "numpy",
     "ranks > 1 marches on the numpy backend (cluster workers are not "
     "backend-aware); drop backend or ranks"),
    (lambda o: o.ranks > 1 and o.retry is not None,
     "ranks > 1 does not support the rollback-retry guard"),
    (lambda o: o.ranks > 1 and o.tuning != "off",
     "ranks > 1 does not support tuning"),
    (lambda o: o.ranks > 1 and o.fault_injector is not None,
     "ranks > 1 does not support cell fault injectors; inject rank faults "
     "with repro.cluster.RankFault through ProcessCluster"),
    (lambda o: o.ranks > 1 and o.callback is not None,
     "per-step callbacks are not supported with ranks > 1"),
    (lambda o: o.rank_fault is not None and not o.checkpoint_every,
     "fault injection requires checkpointing (set checkpoint_every and "
     "checkpoint_dir)"),
    (lambda o: o.batched and (o.ranks > 1 or o.retry or o.validate_every
                              or o.precision != "float64"
                              or not o.use_workspace),
     "the batched ensemble engine does not take ranks, retry, "
     "validate_every, precision or use_workspace=False (a case needing "
     "them runs standalone)"),
)
