"""One options object: every run-time knob, declared once.

:class:`SolverOptions` is the frozen record of *how* a case is marched
(numerics stay in :class:`~repro.solver.rhs.RHSConfig`).  Each field is
one :func:`knob` declaration and the rest is derived from those: keyword
validation, the ``"solver"`` section parser (:meth:`~SolverOptions.
from_mapping`), the argparse flags (:func:`add_cli_flags`), the "CLI
beats file" rule (:meth:`~SolverOptions.overridden_by`) and DESIGN.md's
reference table.  Knob *combinations* no driver runs are :data:`REFUSALS`.
A case file has one section, ``"solver"``; a campaign spec reads its
durability knobs from a second, ``"service"`` (:func:`section_of`).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from repro.backend import BACKEND_NAMES, PRECISIONS, Backend
from repro.common import ConfigurationError
from repro.common.checks import choice, integer, optional, path, real
from repro.solver.resilience import RetryPolicy
from repro.solver.sweep import FUSION_MODES, SWEEP_LAYOUTS
from repro.timestepping.ssp_rk import SSP_SCHEMES
from repro.tuning.plan import TuningPlan

_ALL, _RUN, _BATCHED = ("run", "ensemble", "tune"), ("run",), ("run", "ensemble")
_CAMPAIGN = ("ensemble",)


def knob(default, check, help, on=(), *, key="", flag="", from_cli=None,
         service=False, **cli):
    """One knob: ``check(label, value)`` normalises or raises; sub-commands
    ``on`` read its case-file ``key`` (default the field name, None for none;
    a campaign from its ``"service"`` section when ``service``) and take its
    ``flag`` (default from the key, None for none; ``add_argument`` extras
    in ``cli``; ``from_cli(given, current)`` when the flag is not the value)."""
    return dataclasses.field(default=default, metadata=dict(
        check=check, help=help, on=on, key=key, flag=flag, from_cli=from_cli,
        service=service, cli=cli))


def _retries(count, policy):
    """``--retries N``: N retries of the file's (else the default) policy."""
    policy = policy or RetryPolicy()
    return dataclasses.replace(
        policy, max_retries=count,
        same_dt_retries=min(policy.same_dt_retries, count))


def _ledger(label, value):
    """A ledger path, or an open :class:`~repro.ensemble.ledger.JobLedger`."""
    return value if hasattr(value, "replay") else path(label, value)


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
    sweep_layout: str = knob(
        "strided", choice(*SWEEP_LAYOUTS), "memory layout "
        "of the direction sweeps; both values plan the one schedule of "
        "the tile layout rule (a driver's .layout is the state layout)",
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
    validate_every: int | None = knob(
        None, optional(integer(0)), "validate the state every N steps; 0 "
        "never, None the driver's cadence (a campaign's batches: 1, else 10)",
        _RUN, type=int)
    checkpoint_every: int | None = knob(
        None, optional(integer(0)), "rotating durable checkpoint every N "
        "steps; 0 off, None the driver's cadence (a campaign with a ledger: "
        "5, else off)", _BATCHED, service=True, type=int)
    checkpoint_dir: object = knob(
        None, optional(path), "directory of the rotating checkpoints (a "
        "campaign's: 'checkpoints' beside the ledger)", _BATCHED,
        service=True)
    checkpoint_keep: int = knob(
        3, integer(1), "rotating checkpoints to retain", _BATCHED,
        service=True, type=int)
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
        "execution backend of the kernels (checked enforces the device "
        "discipline); None is numpy", _BATCHED, choices=BACKEND_NAMES)
    precision: str = knob(
        "float64", choice(*PRECISIONS), "state precision; float32 is a "
        "validated-tolerance mode, not bitwise", _RUN, choices=PRECISIONS)
    ledger: object = knob(
        None, optional(_ledger), "write-ahead ledger of a campaign: durable "
        "and crash-tolerant, resumed if it exists; None writes no file (see "
        "docs/ensemble.md)", _CAMPAIGN, service=True)
    results_dir: object = knob(
        None, optional(path), "final result snapshots of a durable campaign "
        "(default: 'results' beside the ledger)", _CAMPAIGN, service=True)
    max_attempts: int = knob(
        3, integer(1), "recorded failures per job before quarantine",
        _CAMPAIGN, service=True, type=int)
    retry_base_seconds: float = knob(
        0.5, real(lambda v: v >= 0, "a number >= 0"), "backoff base: retry "
        "a of a job starts no sooner than base * 2**(a-1) s (capped) after "
        "its failure; 0 retries at once", _CAMPAIGN, service=True, flag=None)
    deadline_seconds: float = knob(
        60.0, real(lambda v: v > 0, "a positive number"), "no-progress "
        "deadline (s) of a batch attempt", _CAMPAIGN, service=True,
        flag="--deadline", type=float)
    wall_limit_seconds: float | None = knob(
        None, optional(real(lambda v: v > 0, "a positive number")),
        "hard wall budget (s) of a batch attempt; None unbounded",
        _CAMPAIGN, service=True, flag=None)
    supervise: bool = knob(
        True, choice(True, False), "run each batch in a supervised child; "
        "--no-supervise runs it in-process (debugging; no SIGKILL "
        "protection)", _CAMPAIGN, service=True, flag="--no-supervise",
        action="store_const", const=False)
    degrade_after: int = knob(
        2, integer(1), "consecutive batch failures that halve the batch "
        "width", _CAMPAIGN, service=True, flag=None)
    min_batch_width: int = knob(
        1, integer(1), "floor of that halving", _CAMPAIGN, service=True,
        flag=None)

    def __post_init__(self) -> None:
        for f in KNOBS:
            object.__setattr__(self, f.name, f.metadata["check"](
                f.name, getattr(self, f.name)))

    @classmethod
    def from_mapping(cls, mapping, *, command: str = "run",
                     section: str = "solver"):
        """Options from a spec's ``section`` (None = defaults), restricted
        to the keys ``command`` reads there; errors name the key."""
        if not isinstance(mapping, dict | None):
            raise ConfigurationError(
                f"'{section}' section must be a mapping, got {mapping!r}")
        mapping, by_key = mapping or {}, section_keys(command, section)
        unknown = sorted(set(mapping) - set(by_key))
        if unknown:
            raise ConfigurationError(
                f"unknown {command} {section} option(s) {unknown}; "
                f"choose from {sorted(by_key)}")
        return cls(**{by_key[key].name: by_key[key].metadata["check"](
            f"{section} {key}", value) for key, value in mapping.items()})

    def overridden_by(self, args) -> "SolverOptions":
        """The one "CLI beats file" rule: every knob flag of ``args.command``
        given on the command line replaces the value held here."""
        changes = {}
        for f in flagged(args.command):
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

    def require_compatible(self, *, callback=None, rank_fault=None,
                           batched=False, campaign=False) -> None:
        """Raise the reason of the first of :data:`REFUSALS` that holds for
        these options and what else the driver holds (the keywords; a
        ``campaign`` is batched too)."""
        o = SimpleNamespace(**vars(self), callback=callback,
                            rank_fault=rank_fault,
                            batched=batched or campaign, campaign=campaign)
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


def flagged(command: str) -> list:
    """The knobs ``command`` takes a flag for."""
    return [f for f in knobs_of(command) if spelling(f)[1]]


def spelling(f) -> tuple:
    """``(case-file key or None, CLI flag or None)`` of a knob."""
    key = f.name if f.metadata["key"] == "" else f.metadata["key"]
    flag = f.metadata["flag"]
    return key, ("--" + (key or f.name).replace("_", "-") if flag == ""
                 else flag)


def section_of(f, command: str) -> str:
    """The spec section ``command`` reads knob ``f`` from: a campaign's
    durability knobs sit in its ``"service"`` section, the rest (and every
    knob of a case file) in ``"solver"``."""
    return "service" if command == "ensemble" and f.metadata["service"] \
        else "solver"


def section_keys(command: str = "run", section: str = "solver") -> dict:
    """``{key: field}`` of the ``section`` keys ``command`` reads."""
    return {spelling(f)[0]: f for f in knobs_of(command)
            if spelling(f)[0] and section_of(f, command) == section}


def add_cli_flags(parser, command: str) -> None:
    """Generate ``command``'s knob flags (absent = keep the file's value)."""
    for f in flagged(command):
        parser.add_argument(spelling(f)[1], default=None,
                            help=f.metadata["help"], **f.metadata["cli"])


#: Knob combinations no driver runs: ``(refused(namespace), reason)``.
REFUSALS = (
    (lambda o: o.campaign and o.ledger is None
     and (o.checkpoint_dir or o.results_dir or o.checkpoint_every is not None),
     "checkpoint_dir, results_dir and checkpoint_every need a ledger: a "
     "campaign without one writes no file"),
    # A campaign's ledger names its checkpoint_dir.
    (lambda o: o.checkpoint_every and o.checkpoint_dir is None
     and not o.campaign,
     "checkpoint_every requires a checkpoint_dir"),
    (lambda o: o.ranks > 1 and (o.threads or 1) > 1,
     "ranks > 1 is incompatible with threads > 1 (a rank marches its block "
     "on one core; pick one parallel backend)"),
    (lambda o: o.ranks > 1 and o.tuning != "off",
     "ranks > 1 does not support tuning (the autotuner times the whole "
     "domain in one process, not a rank's block)"),
    (lambda o: o.ranks > 1 and o.callback is not None,
     "per-step callbacks are not supported with ranks > 1 (a callback in a "
     "forked rank cannot reach the caller's objects)"),
    (lambda o: o.rank_fault is not None and not o.checkpoint_every,
     "fault injection requires checkpointing (set checkpoint_every and "
     "checkpoint_dir)"),
    (lambda o: o.batched and (o.ranks > 1 or o.retry
                              or o.precision != "float64"
                              or not o.use_workspace),
     "the batched ensemble engine does not take ranks, retry, precision "
     "or use_workspace=False (a case needing them runs standalone)"),
)
