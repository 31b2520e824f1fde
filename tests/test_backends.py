"""Tests for the execution backends: registry, guard discipline,
bitwise parity, float32 policy, tuner axis and the bandwidth probe
(see docs/backends.md)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    BACKEND_NAMES,
    BackendLeakError,
    GuardArray,
    PRECISIONS,
    array_namespace,
    get_backend,
    resolve_backend,
    to_host_array,
    validate_backend,
    validate_precision,
)
from repro.backend import precision_dtype
from repro.backend.guard import GUARD_NAMESPACE
from repro.bc import BoundarySet
from repro.common import ConfigurationError
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere

AIR = StiffenedGas(1.4, 0.0, "air")
HELIUM = StiffenedGas(1.667, 0.0, "helium")
MIX = Mixture((AIR, HELIUM))


def bubble_case(n=12, ndim=2):
    bounds = ((0.0, 1.0),) * ndim
    grid = StructuredGrid.uniform(bounds, (n,) * ndim)
    case = Case(grid, MIX)
    case.add(Patch(box([0.0] * ndim, [1.0] * ndim), alpha_rho=(0.5, 0.5),
                   velocity=(0.3,) + (0.0,) * (ndim - 1), pressure=1.0,
                   alpha=(0.5,)))
    case.add(Patch(sphere([0.5] * ndim, 0.25), alpha_rho=(1.0, 0.2),
                   velocity=(0.0,) * ndim, pressure=2.0, alpha=(0.8,)))
    return case


def rhs_for(case, backend="numpy", **kwargs):
    bcs = BoundarySet.all_periodic(case.grid.ndim)
    return RHS(case.layout, case.mixture, case.grid, bcs, RHSConfig(
        weno_order=kwargs.pop("weno_order", 5),
        riemann_solver=kwargs.pop("riemann_solver", "hllc")),
        use_workspace=True, backend=backend, **kwargs)


def eval_rhs(case, backend, **kwargs):
    """One RHS evaluation on ``backend``, returned as a host array."""
    be = resolve_backend(backend)
    rhs = rhs_for(case, backend=be, **kwargs)
    try:
        q = be.from_host(case.initial_conservative())
        return to_host_array(rhs(q)).copy()
    finally:
        rhs.close()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_host_backends_always_available(self):
        assert BACKEND_NAMES == ("numpy", "checked")
        assert [get_backend(n).name for n in BACKEND_NAMES] == ["numpy",
                                                                "checked"]

    def test_numpy_namespace_is_the_numpy_module(self):
        # Zero indirection on the default path: xp *is* numpy, which is
        # what makes the converted kernels bitwise identical to seed.
        assert get_backend("numpy").xp is np

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_backend("fortran")
        with pytest.raises(ConfigurationError):
            get_backend("fortran")

    def test_resolve_forms(self):
        be = get_backend("checked")
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("checked") is be
        assert resolve_backend(be) is be
        with pytest.raises(ConfigurationError):
            resolve_backend(42)

    def test_missing_optional_backend_raises(self):
        for name in ("torch", "cupy"):
            with pytest.raises(ConfigurationError, match=name):
                get_backend(name)

    def test_capability_flags(self):
        assert get_backend("numpy").supports_fusion
        assert not get_backend("checked").supports_fusion

    def test_precision_validation(self):
        assert validate_precision("float32") == "float32"
        assert precision_dtype("float64") == np.dtype(np.float64)
        with pytest.raises(ConfigurationError):
            validate_precision("float16")
        assert PRECISIONS == ("float64", "float32")

    def test_from_host_identity_and_dtype(self):
        a = np.arange(6.0)
        be = get_backend("numpy")
        assert be.from_host(a) is a          # H2D is free on the host
        assert be.from_host(a, dtype=np.float32).dtype == np.float32
        g = get_backend("checked").from_host(a)
        assert isinstance(g, GuardArray)
        assert to_host_array(g) is a         # zero-copy wrap

    def test_array_namespace_resolution(self):
        a = np.arange(3.0)
        g = get_backend("checked").from_host(a)
        assert array_namespace(a) is np
        assert array_namespace(g) is GUARD_NAMESPACE
        assert array_namespace(1.0, None) is np  # scalars default to numpy
        with pytest.raises(ConfigurationError):
            array_namespace(a, g)            # implicit transfer


# ----------------------------------------------------------------------
# Guard (device discipline)
# ----------------------------------------------------------------------

class TestGuard:
    def test_host_leak_is_loud(self):
        g = get_backend("checked").from_host(np.arange(4.0))
        with pytest.raises(BackendLeakError):
            np.asarray(g)

    def test_numpy_ufunc_on_guard_rejected(self):
        g = get_backend("checked").from_host(np.arange(4.0))
        with pytest.raises(TypeError):
            np.add(g, 1.0)

    def test_guard_ops_match_numpy_bitwise(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(32), rng.random(32) + 0.5
        ga = get_backend("checked").from_host(a.copy())
        gb = get_backend("checked").from_host(b.copy())
        want = np.sqrt(a * b + a / b) - np.minimum(a, b)
        got = GUARD_NAMESPACE.sqrt(ga * gb + ga / gb) \
            - GUARD_NAMESPACE.minimum(ga, gb)
        assert isinstance(got, GuardArray)
        assert to_host_array(got).tobytes() == want.tobytes()

    def test_sanctioned_asarray_entry(self):
        g = GUARD_NAMESPACE.asarray([1.0, 2.0], dtype=np.float64)
        assert isinstance(g, GuardArray)
        assert to_host_array(g).tolist() == [1.0, 2.0]


# ----------------------------------------------------------------------
# Bitwise parity of the full RHS
# ----------------------------------------------------------------------

class TestRHSBitwise:
    @given(weno=st.sampled_from((1, 3, 5)),
           riemann=st.sampled_from(("hllc", "hll", "rusanov")),
           layout=st.sampled_from(("strided", "transposed")),
           threads=st.sampled_from((1, 2)))
    @settings(max_examples=12, deadline=None)
    def test_checked_backend_is_bitwise(self, weno, riemann, layout,
                                        threads):
        """The xp seam changes nothing: the guard backend — which runs
        every kernel through the namespace instead of module-level
        ``np.*`` — produces the exact bits of the NumPy reference
        across orders x solvers x layouts x threads."""
        case = bubble_case(12)
        kwargs = dict(weno_order=weno, riemann_solver=riemann,
                      sweep_layout=layout, threads=threads)
        ref = eval_rhs(case, "numpy", **kwargs)
        got = eval_rhs(case, "checked", **kwargs)
        assert got.tobytes() == ref.tobytes()

    def test_fusion_requires_capable_backend(self):
        case = bubble_case(12)
        with pytest.raises(ConfigurationError):
            rhs_for(case, backend="checked", fusion="on")

    def test_fusion_auto_falls_back_silently(self):
        case = bubble_case(12)
        ref = eval_rhs(case, "numpy", fusion="off")
        got = eval_rhs(case, "checked", fusion="auto")
        assert got.tobytes() == ref.tobytes()

    def test_march_on_checked_backend_is_bitwise(self):
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        sims = {}
        for name in ("numpy", "checked"):
            sim = Simulation(case, bcs, backend=name)
            sim.run(n_steps=5)
            sims[name] = to_host_array(sim.q).copy()
        assert sims["checked"].tobytes() == sims["numpy"].tobytes()


# ----------------------------------------------------------------------
# float32: an explicit validated option, never a tuner pick
# ----------------------------------------------------------------------

class TestFloat32:
    @staticmethod
    def scaled_error(got, ref):
        """Per-variable max error over a per-variable scale *floor* —
        bare relative error blows up on symmetry zeros and denormals."""
        axes = tuple(range(1, ref.ndim))
        scale = np.maximum(np.abs(ref).max(axis=axes, keepdims=True), 1e-30)
        return float((np.abs(got - ref) / scale).max())

    def test_single_rhs_within_single_precision(self):
        case = bubble_case(16)
        ref = eval_rhs(case, "numpy")
        got = eval_rhs_float32(case)
        assert got.dtype == np.float32
        assert self.scaled_error(got.astype(np.float64), ref) < 1e-5

    def test_march_converges_to_float64(self):
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        states = {}
        for prec in ("float64", "float32"):
            sim = Simulation(case, bcs, precision=prec)
            sim.run(n_steps=5)
            sim.validate_state()
            states[prec] = to_host_array(sim.q)
        assert states["float32"].dtype == np.float32
        err = self.scaled_error(states["float32"].astype(np.float64),
                                states["float64"])
        assert err < 1e-3

    def test_checkpoint_roundtrip_exact(self, tmp_path):
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        sim = Simulation(case, bcs, precision="float32")
        sim.run(n_steps=3)
        path = tmp_path / "f32.ckpt"
        sim.save_checkpoint(path)
        sim2 = Simulation(case, bcs, precision="float32")
        sim2.load_checkpoint(path)
        assert sim2.q.dtype == np.float32
        # write upcasts losslessly, restart downcasts: exact bits back
        assert sim2.q.tobytes() == sim.q.tobytes()

    def test_float32_multiprocess_runs_match_one_rank(self):
        # Was the REFUSALS row "ranks > 1 marches in float64": the rank
        # arena now holds the state dtype.
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        states = []
        for ranks in (1, 2):
            sim = Simulation(case, bcs, precision="float32", ranks=ranks)
            sim.run(n_steps=3)
            states.append(to_host_array(sim.q))
        assert states[1].dtype == np.float32
        assert states[1].tobytes() == states[0].tobytes()

    def test_bad_precision_rejected(self):
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        with pytest.raises(ConfigurationError):
            Simulation(case, bcs, precision="float16")


def eval_rhs_float32(case):
    be = get_backend("numpy")
    rhs = rhs_for(case, backend=be, precision="float32")
    try:
        q = be.from_host(case.initial_conservative(), dtype=np.float32)
        return to_host_array(rhs(q)).copy()
    finally:
        rhs.close()


# ----------------------------------------------------------------------
# Checkpoint round-trip through the D2H seam
# ----------------------------------------------------------------------

class TestCheckpointSeam:
    def test_checked_backend_roundtrip_bitwise(self, tmp_path):
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        sim = Simulation(case, bcs, backend="checked")
        sim.run(n_steps=4)
        path = tmp_path / "guard.ckpt"
        sim.save_checkpoint(path)
        sim2 = Simulation(case, bcs, backend="checked")
        sim2.load_checkpoint(path)
        assert isinstance(sim2.q, GuardArray)  # restart lands on-device
        assert to_host_array(sim2.q).tobytes() == \
            to_host_array(sim.q).tobytes()
        assert sim2.time == sim.time and sim2.step_count == sim.step_count


# ----------------------------------------------------------------------
# Ensemble batching across backends
# ----------------------------------------------------------------------

class TestEnsembleBackends:
    def _run(self, backend):
        from repro.ensemble import EnsembleJob, EnsembleRunner

        jobs = [EnsembleJob(case=bubble_case(10), t_end=0.05,
                            name=f"j{i}") for i in range(3)]
        runner = EnsembleRunner(jobs, BoundarySet.all_periodic(2),
                                batch_width=3, backend=backend)
        return runner.run()

    def test_checked_stacked_march_is_bitwise(self):
        with Simulation(bubble_case(10), BoundarySet.all_periodic(2)) as ref:
            ref.run(t_end=0.05)
        got = self._run("checked")
        assert [j.status for j in got.jobs] == ["done"] * 3
        for b in got.results:
            assert (b.steps, b.time) == (ref.step_count, ref.time)
            assert b.q.tobytes() == to_host_array(ref.q).tobytes()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            self._run("fortran")


# ----------------------------------------------------------------------
# Tuner: backend is an axis, gated by the validity check
# ----------------------------------------------------------------------

class TestTunerBackendAxis:
    def test_candidates_carry_backend_axis(self):
        from repro.tuning.registry import candidate_plans

        plans = candidate_plans(ndim=2, cpu_count=4,
                                backends=("numpy", "checked"))
        names = {p["backend"] for p in plans}
        assert names == {"numpy", "checked"}
        # Non-default backends only field the heuristic plan: the
        # backend axis asks *where*, the other axes ask *how*.
        assert [p for p in plans if p["backend"] == "checked"] == [
            dict(plans[0], backend="checked")]

    def test_plan_validates_backend(self):
        from repro.tuning import TuningPlan

        for name in ("fortran", "torch", "cupy"):
            with pytest.raises(ConfigurationError):
                TuningPlan(backend=name)

    def test_adopted_plan_can_move_the_backend(self):
        case = bubble_case(12)
        bcs = BoundarySet.all_periodic(2)
        plan = dict(backend="checked")
        sim = Simulation(case, bcs, tuning=plan)
        assert sim.backend.name == "checked"
        sim.run(n_steps=2)
        ref = Simulation(case, bcs)
        ref.run(n_steps=2)
        assert to_host_array(sim.q).tobytes() == ref.q.tobytes()


# ----------------------------------------------------------------------
# Measured host bandwidth (STREAM-triad probe)
# ----------------------------------------------------------------------

class TestBandwidthProbe:
    def test_probe_returns_positive_rate(self):
        from repro.hardware import stream_triad_gbps

        gbps = stream_triad_gbps(n_mib=1.0, repeats=2)
        assert 0.0 < gbps < 1e4


# ----------------------------------------------------------------------
# Case files and capability fallbacks
# ----------------------------------------------------------------------

class TestSolverOptions:
    def test_case_file_backend_and_precision(self):
        from repro.io.case_files import solver_options_from_dict

        opts = solver_options_from_dict(
            {"solver": {"backend": "checked", "precision": "float32"}})
        assert opts["backend"] == "checked"
        assert opts["precision"] == "float32"
        with pytest.raises(ConfigurationError):
            solver_options_from_dict({"solver": {"backend": "fortran"}})
        with pytest.raises(ConfigurationError):
            solver_options_from_dict({"solver": {"precision": "float16"}})
        for name in ("torch", "cupy"):
            with pytest.raises(ConfigurationError, match="backend"):
                solver_options_from_dict({"solver": {"backend": name}})
