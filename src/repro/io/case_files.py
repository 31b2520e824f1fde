"""JSON case files — the analog of MFC's input decks.

MFC cases are Python dictionaries naming the grid, the fluids'
stiffened-gas parameters, and a list of geometric patches.  This module
round-trips :class:`~repro.solver.case.Case` objects through a plain
JSON-serialisable dictionary with the same structure, so cases can be
saved, versioned, and launched from the command line
(``python -m repro run case.json``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.common import ConfigurationError
from repro.common.checks import integer
from repro.eos import Mixture, StiffenedGas
from repro.grid.cartesian import StructuredGrid
from repro.solver.case import Case, Patch, box, halfspace, sphere
from repro.solver.options import SolverOptions, section_keys

#: Geometry kinds a case file may reference.
GEOMETRY_KINDS = ("box", "sphere", "halfspace")

#: The keys each loader reads: a case file's, an ensemble spec's and one
#: of its job entries'.  A key that starts with ``_`` (the examples'
#: ``"_comment"``) is a comment; any other key is refused.
CASE_KEYS = ("grid", "fluids", "patches", "solver")
SPEC_KEYS = ("jobs", "t_end", "batch_width", "solver", "service")
JOB_KEYS = ("case", "case_file", "name", "t_end")


def _check_keys(what: str, spec: dict, allowed) -> None:
    unknown = sorted(str(key) for key in spec
                     if key not in allowed and not str(key).startswith("_"))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s) {unknown}; choose from {sorted(allowed)}")


def solver_options_from_dict(spec: dict, *, command: str = "run",
                             section: str = "solver",
                             base_dir: str | Path | None = None) -> dict:
    """Validated knobs of a spec's optional ``section``.

    :meth:`SolverOptions.from_mapping` is the validation; the keys are
    the ones DESIGN.md "Options: one table" lists for ``command`` in
    that section.  Returns a plain dict of only the knobs the section
    sets, keyed by field name — keyword arguments for the drivers; an
    absent section yields ``{}``.  With ``base_dir`` the section's
    paths (the ``"service"`` section's only strings) resolve against it.
    """
    mapping = spec.get(section)
    options = SolverOptions.from_mapping(mapping, command=command,
                                         section=section)
    out = {f.name: getattr(options, f.name)
           for key, f in section_keys(command, section).items()
           if key in (mapping or {})}
    if base_dir is not None:
        out.update((name, Path(base_dir) / value) for name, value
                   in out.items() if isinstance(value, str | os.PathLike))
    return out


def _geometry_from_dict(g: dict):
    kind = g.get("kind")
    if kind == "box":
        return box(g["lo"], g["hi"])
    if kind == "sphere":
        return sphere(g["center"], g["radius"])
    if kind == "halfspace":
        return halfspace(int(g["axis"]), float(g["threshold"]),
                         side=g.get("side", "below"))
    raise ConfigurationError(
        f"unknown patch geometry kind {kind!r}; choose from {GEOMETRY_KINDS}")


def case_from_dict(spec: dict) -> Case:
    """Build a :class:`Case` from a case-file dictionary."""
    _check_keys("case file", spec, CASE_KEYS)
    for key in ("grid", "fluids", "patches"):
        if key not in spec:
            raise ConfigurationError(f"case file missing {key!r} section")
    solver_options_from_dict(spec)  # validate the optional section early

    gspec = spec["grid"]
    bounds = tuple(tuple(float(v) for v in b) for b in gspec["bounds"])
    shape = tuple(int(n) for n in gspec["shape"])
    stretch = gspec.get("stretching")
    if stretch:
        grid = StructuredGrid.stretched(
            bounds, shape, focus=tuple(float(v) for v in stretch["focus"]),
            strength=float(stretch.get("strength", 2.0)),
            width=float(stretch.get("width", 0.2)))
    else:
        grid = StructuredGrid.uniform(bounds, shape)

    fluids = tuple(
        StiffenedGas(gamma=float(f["gamma"]), pi_inf=float(f.get("pi_inf", 0.0)),
                     name=str(f.get("name", f"fluid{i}")))
        for i, f in enumerate(spec["fluids"]))
    case = Case(grid, Mixture(fluids))

    for pspec in spec["patches"]:
        case.add(Patch(
            region=_geometry_from_dict(pspec["geometry"]),
            alpha_rho=tuple(float(v) for v in pspec["alpha_rho"]),
            velocity=tuple(float(v) for v in pspec["velocity"]),
            pressure=float(pspec["pressure"]),
            alpha=tuple(float(v) for v in pspec["alpha"]),
            smear=float(pspec.get("smear", 0.0)),
        ))
    return case


def case_to_dict(case: Case, *, geometries: list[dict]) -> dict:
    """Serialise a case; closures cannot be introspected, so the caller
    supplies the geometry dictionaries in patch order."""
    if len(geometries) != len(case.patches):
        raise ConfigurationError(
            f"{len(geometries)} geometry specs for {len(case.patches)} patches")
    grid = case.grid
    bounds = [[float(f[0]), float(f[-1])] for f in grid.faces]
    spec = {
        "grid": {"bounds": bounds, "shape": list(grid.shape)},
        "fluids": [{"gamma": f.gamma, "pi_inf": f.pi_inf, "name": f.name}
                   for f in case.mixture.fluids],
        "patches": [],
    }
    for patch, g in zip(case.patches, geometries):
        if g.get("kind") not in GEOMETRY_KINDS:
            raise ConfigurationError(f"invalid geometry spec {g!r}")
        spec["patches"].append({
            "geometry": g,
            "alpha_rho": list(patch.alpha_rho),
            "velocity": list(patch.velocity),
            "pressure": patch.pressure,
            "alpha": list(patch.alpha),
            "smear": patch.smear,
        })
    return spec


def load_case(path: str | Path) -> Case:
    """Load a case from a JSON file."""
    with Path(path).open() as fh:
        return case_from_dict(json.load(fh))


def load_solver_options(path: str | Path) -> dict:
    """Validated solver options from a case file (``{}`` if absent)."""
    with Path(path).open() as fh:
        return solver_options_from_dict(json.load(fh))


def ensemble_from_dict(spec: dict, *, base_dir: str | Path | None = None):
    """Jobs and options from an ensemble-spec dictionary.

    The spec carries a ``"jobs"`` list — each entry an inline
    ``"case"`` dictionary or a ``"case_file"`` path (resolved against
    ``base_dir``), plus an optional per-job ``"t_end"`` and ``"name"``
    — a top-level default ``"t_end"``, an optional ``"batch_width"``,
    and an optional ``"solver"`` section restricted to the knobs the
    batched engine takes (resilience and multi-process knobs are
    single-case concerns).  Returns ``(jobs, batch_width,
    options)`` where ``jobs`` is a list of
    :class:`repro.ensemble.EnsembleJob` and ``options`` the keyword
    arguments for :class:`repro.ensemble.EnsembleService`.
    """
    # Deferred: the ensemble/cluster packages are ~80 ms of imports a
    # plain `run` never needs.
    from repro.ensemble import EnsembleJob

    _check_keys("ensemble spec", spec, SPEC_KEYS)
    jobs_spec = spec.get("jobs")
    if not isinstance(jobs_spec, list) or not jobs_spec:
        raise ConfigurationError(
            "ensemble spec needs a non-empty 'jobs' list")
    default_t_end = spec.get("t_end")
    batch_width = integer(1)("batch_width", spec.get("batch_width", 8))
    options = solver_options_from_dict(spec, command="ensemble")

    base = Path(base_dir) if base_dir is not None else Path(".")
    jobs = []
    for i, jspec in enumerate(jobs_spec):
        if not isinstance(jspec, dict):
            raise ConfigurationError(
                f"ensemble job {i} must be a mapping, "
                f"got {type(jspec).__name__}")
        _check_keys(f"ensemble job {i}", jspec, JOB_KEYS)
        if ("case" in jspec) == ("case_file" in jspec):
            raise ConfigurationError(
                f"ensemble job {i} needs exactly one of 'case' (inline) "
                f"or 'case_file' (path)")
        if "case" in jspec:
            case = case_from_dict(jspec["case"])
        else:
            case = load_case(base / jspec["case_file"])
        t_end = jspec.get("t_end", default_t_end)
        if t_end is None:
            raise ConfigurationError(
                f"ensemble job {i} has no 't_end' and the spec sets "
                f"no default")
        jobs.append(EnsembleJob(case, float(t_end),
                                str(jspec.get("name", f"job{i}"))))
    return jobs, batch_width, options


def load_ensemble(path: str | Path):
    """Load an ensemble spec from JSON; see :func:`ensemble_from_dict`.

    ``case_file`` references resolve relative to the spec's directory.
    Ignores any ``"service"`` section — use :func:`load_ensemble_spec`
    for the campaign-service options too.
    """
    jobs, batch_width, options, _service = load_ensemble_spec(path)
    return jobs, batch_width, options


def load_ensemble_spec(path: str | Path):
    """Load an ensemble spec including its campaign-service options.

    Returns ``(jobs, batch_width, options, service)`` where ``service``
    is ``{}`` without a ``"service"`` section and otherwise the
    validated keyword arguments (ledger/checkpoint/results paths
    resolved relative to the spec file) for
    :class:`repro.ensemble.EnsembleService`.
    """
    path = Path(path)
    with path.open() as fh:
        spec = json.load(fh)
    jobs, batch_width, options = ensemble_from_dict(
        spec, base_dir=path.parent)
    service = solver_options_from_dict(spec, command="ensemble",
                                       section="service",
                                       base_dir=path.parent)
    return jobs, batch_width, options, service


def save_case(path: str | Path, spec: dict) -> None:
    """Write a case-file dictionary as JSON (validating it builds first)."""
    case_from_dict(spec)  # raises on malformed specs
    with Path(path).open("w") as fh:
        json.dump(spec, fh, indent=2)
