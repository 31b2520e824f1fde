"""Tests for the OpenACC directive model: clauses, launch, compilers,
data regions, and the runtime."""

import numpy as np
import pytest

from repro.acc import (
    AccKernel,
    AccRuntime,
    Clause,
    COMPILERS,
    DeviceDataEnvironment,
    LoopDirective,
    ParallelLoopNest,
    derive_launch,
    get_compiler,
)
from repro.acc.directives import PrivateArray, listing1_nest
from repro.acc.launch import DEFAULT_VECTOR_LENGTH
from repro.common import ConfigurationError, DirectiveError
from repro.hardware import get_device


class TestLoopDirective:
    def test_basic(self):
        lp = LoopDirective("j", 100, frozenset({Clause.GANG, Clause.VECTOR}))
        assert lp.partitioned and not lp.is_seq

    def test_seq_excludes_partitioning(self):
        with pytest.raises(DirectiveError):
            LoopDirective("i", 4, frozenset({Clause.SEQ, Clause.VECTOR}))

    def test_seq_excludes_collapse(self):
        with pytest.raises(DirectiveError):
            LoopDirective("i", 4, frozenset({Clause.SEQ}), collapse=2)

    def test_extent_must_be_positive(self):
        with pytest.raises(DirectiveError):
            LoopDirective("j", 0)


class TestParallelLoopNest:
    def test_collapse_cannot_exceed_depth(self):
        loops = (LoopDirective("l", 10, frozenset({Clause.GANG}), collapse=3),
                 LoopDirective("k", 10))
        with pytest.raises(DirectiveError):
            ParallelLoopNest(loops)

    def test_collapsed_inner_loops_cannot_carry_clauses(self):
        loops = (LoopDirective("l", 10, frozenset({Clause.GANG}), collapse=2),
                 LoopDirective("k", 10, frozenset({Clause.VECTOR})))
        with pytest.raises(DirectiveError):
            ParallelLoopNest(loops)

    def test_gang_inside_vector_illegal(self):
        loops = (LoopDirective("l", 10, frozenset({Clause.VECTOR})),
                 LoopDirective("k", 10, frozenset({Clause.GANG})))
        with pytest.raises(DirectiveError):
            ParallelLoopNest(loops)

    def test_empty_nest_rejected(self):
        with pytest.raises(DirectiveError):
            ParallelLoopNest(())

    def test_total_iterations(self):
        nest = listing1_nest(10, 20, 30, 2)
        assert nest.total_iterations == 10 * 20 * 30 * 2

    def test_parallel_iterations_collapse3(self):
        nest = listing1_nest(10, 20, 30, 2, collapse=3)
        assert nest.parallel_iterations() == 6000
        assert nest.serial_iterations_per_thread() == pytest.approx(2.0)

    def test_parallel_iterations_default(self):
        nest = listing1_nest(10, 20, 30, 2, gang_vector=False, collapse=1)
        assert nest.parallel_iterations() == 30  # outermost loop only

    def test_seq_inner_not_parallel(self):
        nest = listing1_nest(10, 10, 10, 5, collapse=3, seq_inner=True)
        assert nest.parallel_iterations() == 1000
        assert nest.serial_iterations_per_thread() == pytest.approx(5.0)


class TestLaunch:
    def test_default_one_lane_per_gang(self):
        nest = listing1_nest(100, 100, 100, 2, gang_vector=False, collapse=1)
        lc = derive_launch(nest)
        assert lc.vector_length == 1
        assert lc.num_gangs == 100

    def test_collapse_exposes_full_parallelism(self):
        nest = listing1_nest(100, 100, 100, 2, collapse=3)
        lc = derive_launch(nest)
        assert lc.total_threads >= 1_000_000
        assert lc.vector_length == DEFAULT_VECTOR_LENGTH

    def test_collapse_beats_default(self):
        n_def = listing1_nest(100, 100, 100, 2, gang_vector=False, collapse=1)
        n_col = listing1_nest(100, 100, 100, 2, collapse=3)
        assert derive_launch(n_col).total_threads > derive_launch(n_def).total_threads

    def test_small_loop_clamps_vector(self):
        nest = ParallelLoopNest((LoopDirective("j", 7,
                                               frozenset({Clause.GANG, Clause.VECTOR})),))
        lc = derive_launch(nest)
        assert lc.vector_length == 7
        assert lc.num_gangs == 1


class TestCompilers:
    def test_registry(self):
        assert set(COMPILERS) == {"nvhpc", "cce", "gnu"}
        with pytest.raises(ConfigurationError):
            get_compiler("icc")

    def test_nvhpc_cannot_target_amd(self):
        with pytest.raises(ConfigurationError):
            get_compiler("nvhpc").check_target(get_device("mi250x"))

    def test_cce_targets_both_vendors(self):
        cce = get_compiler("cce")
        cce.check_target(get_device("mi250x"))
        cce.check_target(get_device("v100"))

    def test_gnu_rejected_as_immature(self):
        with pytest.raises(ConfigurationError):
            get_compiler("gnu").check_target(get_device("v100"))

    def test_cpu_fallback_always_allowed(self):
        # Directive code compiles for CPUs without OpenACC (paper §I).
        get_compiler("nvhpc").check_target(get_device("epyc9564"))
        get_compiler("gnu").check_target(get_device("grace"))

    def test_fypp_forces_inlining(self):
        for c in COMPILERS.values():
            assert c.effective_inlined(calls_serial_subroutine=True,
                                       cross_module=True, fypp_inlined=True)

    def test_cross_module_not_inlined_without_fypp(self):
        for c in COMPILERS.values():
            assert not c.effective_inlined(calls_serial_subroutine=True,
                                           cross_module=True, fypp_inlined=False)

    def test_same_module_inlines(self):
        assert get_compiler("nvhpc").effective_inlined(
            calls_serial_subroutine=True, cross_module=False, fypp_inlined=False)

    def test_cce_private_array_cliff(self):
        cce = get_compiler("cce")
        nvhpc = get_compiler("nvhpc")
        nest_bad = ParallelLoopNest(
            (LoopDirective("j", 10, frozenset({Clause.GANG})),),
            privates=(PrivateArray("tmp", 4, compile_time_size=False),))
        nest_good = ParallelLoopNest(
            (LoopDirective("j", 10, frozenset({Clause.GANG})),),
            privates=(PrivateArray("tmp", 4, compile_time_size=True),))
        assert not cce.private_arrays_compile_sized(nest_bad)
        assert cce.private_arrays_compile_sized(nest_good)
        assert nvhpc.private_arrays_compile_sized(nest_bad)  # NVHPC unaffected


class TestDataEnvironment:
    def test_enter_copies_to_device(self):
        env = DeviceDataEnvironment()
        host = np.arange(4.0)
        env.enter_data("a", host)
        host[0] = 99.0
        assert env.device_view("a")[0] == 0.0  # device copy unaffected

    def test_present_check(self):
        env = DeviceDataEnvironment()
        with pytest.raises(DirectiveError):
            env.require_present("missing")

    def test_double_enter_rejected(self):
        env = DeviceDataEnvironment()
        env.enter_data("a", np.zeros(3))
        with pytest.raises(DirectiveError):
            env.enter_data("a", np.zeros(3))

    def test_update_host_observes_device_mutation(self):
        env = DeviceDataEnvironment()
        host = np.zeros(3)
        env.enter_data("a", host)
        env.device_view("a")[:] = 7.0
        assert host[0] == 0.0            # stale until update
        env.update_host("a", host)
        assert host[0] == 7.0

    def test_exit_with_copyout(self):
        env = DeviceDataEnvironment()
        host = np.zeros(3)
        env.enter_data("a", host)
        env.device_view("a")[:] = 5.0
        env.exit_data("a", host, copyout=True)
        assert host[1] == 5.0
        assert not env.is_present("a")

    def test_transfer_accounting(self):
        env = DeviceDataEnvironment()
        host = np.zeros(1000)
        env.enter_data("a", host)
        assert env.h2d_bytes == host.nbytes
        assert env.h2d_seconds > 0.0
        env.update_host("a", host)
        assert env.d2h_bytes == host.nbytes
        assert env.total_transfer_seconds > 0.0

    def test_host_data_use_device(self):
        env = DeviceDataEnvironment()
        env.enter_data("a", np.ones(3))
        with env.host_data_use_device("a") as (dev,):
            assert dev is env.device_view("a")
        with pytest.raises(DirectiveError):
            with env.host_data_use_device("b"):
                pass

    def test_resident_bytes(self):
        env = DeviceDataEnvironment()
        env.enter_data("a", np.zeros(10))
        env.enter_data("b", np.zeros(20))
        assert env.resident_bytes == 30 * 8

    def test_update_directions(self):
        env = DeviceDataEnvironment()
        host = np.arange(4.0)
        env.enter_data("q", host)
        host[:] = -1.0
        env.update_device("q", host)
        np.testing.assert_array_equal(env.device_view("q"), -1.0)
        env.device_view("q")[:] = 9.0
        env.update_host("q", host)
        np.testing.assert_array_equal(host, 9.0)

    def test_listing3_sequence(self):
        """The cuTENSOR transpose bracket of Listing 3: ``enter data
        copyin(v_temp) create(v_sf_t)``, the library call inside
        ``host_data use_device(v_temp, v_sf_t)``, then ``exit data
        copyout(v_sf_t) delete(v_temp)``."""
        from repro.fields import geam_transpose_cutensor

        v_temp = np.random.default_rng(0).random((4, 5, 6, 2))
        v_sf_t = np.zeros((6, 5, 4, 2))
        env = DeviceDataEnvironment()
        env.enter_data("v_temp", v_temp)
        env.enter_data("v_sf_t", v_sf_t, copyin=False)
        with env.host_data_use_device("v_temp", "v_sf_t") as (dev_in, dev_out):
            dev_out[...] = geam_transpose_cutensor(dev_in)
        env.exit_data("v_sf_t", v_sf_t, copyout=True)
        env.exit_data("v_temp")
        np.testing.assert_array_equal(v_sf_t, geam_transpose_cutensor(v_temp))
        assert env.resident_bytes == 0
        assert env.h2d_bytes == env.d2h_bytes == v_temp.nbytes


class TestRuntime:
    def make_kernel(self, **kwargs):
        defaults = dict(
            name="k", nest=listing1_nest(32, 32, 32, 2, collapse=3),
            body=lambda x: x * 2.0, kernel_class="other",
            flops_per_iter=10.0, bytes_per_iter=16.0)
        defaults.update(kwargs)
        return AccKernel(**defaults)

    def test_launch_executes_body(self):
        rt = AccRuntime(get_device("a100"), "nvhpc")
        out = rt.launch(self.make_kernel(), np.ones(4))
        np.testing.assert_array_equal(out, 2.0)

    def test_launch_records_profile(self):
        rt = AccRuntime(get_device("a100"), "nvhpc")
        rt.launch(self.make_kernel(), np.ones(4))
        assert rt.profile.total_seconds() > 0.0
        assert "k" in rt.profile.records

    def test_present_enforced(self):
        rt = AccRuntime(get_device("a100"), "nvhpc")
        kernel = self.make_kernel(arrays=("buf",))
        with pytest.raises(DirectiveError):
            rt.launch(kernel, np.ones(4))
        rt.data.enter_data("buf", np.ones(4))
        rt.launch(kernel, np.ones(4))  # now fine

    def test_compiler_target_checked_at_construction(self):
        with pytest.raises(ConfigurationError):
            AccRuntime(get_device("mi250x"), "nvhpc")

    def test_modeled_time_penalties_compose(self):
        rt = AccRuntime(get_device("a100"), "nvhpc")
        fast = self.make_kernel(name="fast")
        slow_aos = self.make_kernel(name="aos", layout_aos=True)
        uncoalesced = self.make_kernel(name="unc", coalesced=False)
        t = {k.name: rt.modeled_time(k) for k in (fast, slow_aos, uncoalesced)}
        assert t["aos"] > t["fast"]
        assert t["unc"] > t["fast"]

    def test_inlining_penalty_only_without_fypp(self):
        # Big kernel so the fixed launch latency is negligible against
        # the 10x body-time penalty.
        rt = AccRuntime(get_device("v100"), "nvhpc")
        big = listing1_nest(256, 256, 256, 2, collapse=3)
        base = self.make_kernel(name="b", nest=big)
        not_inlined = self.make_kernel(name="n", nest=big,
                                       calls_serial_subroutine=True,
                                       cross_module=True)
        fypp = self.make_kernel(name="f", nest=big, calls_serial_subroutine=True,
                                cross_module=True, fypp_inlined=True)
        assert rt.modeled_time(not_inlined) == pytest.approx(
            10.0 * rt.modeled_time(base), rel=0.01)
        assert rt.modeled_time(fypp) == pytest.approx(rt.modeled_time(base))

    def test_private_cliff_cce_amd_only(self):
        def nest(sized):
            return ParallelLoopNest(
                (LoopDirective("j", 256 ** 3,
                               frozenset({Clause.GANG, Clause.VECTOR})),),
                privates=(PrivateArray("tmp", 4, compile_time_size=sized),))

        k_bad = AccKernel(name="p", nest=nest(False), body=lambda: None,
                          flops_per_iter=10.0, bytes_per_iter=16.0)
        k_good = AccKernel(name="p2", nest=nest(True), body=lambda: None,
                           flops_per_iter=10.0, bytes_per_iter=16.0)
        t_amd = AccRuntime(get_device("mi250x"), "cce").modeled_time(k_bad)
        t_amd_good = AccRuntime(get_device("mi250x"), "cce").modeled_time(k_good)
        t_nv = AccRuntime(get_device("v100"), "cce").modeled_time(k_bad)
        t_nv_good = AccRuntime(get_device("v100"), "cce").modeled_time(k_good)
        # The cliff only fires for CCE on AMD (paper §III.D).
        assert t_amd == pytest.approx(30.0 * t_amd_good, rel=0.01)
        assert t_nv == pytest.approx(t_nv_good)

    def test_transpose_library_speedups(self):
        assert AccRuntime(get_device("mi250x"), "cce").library_transpose_speedup() == 7.0
        assert AccRuntime(get_device("a100"), "nvhpc").library_transpose_speedup() == 1.0

    def test_kernel_class_validated(self):
        with pytest.raises(ConfigurationError):
            self.make_kernel(kernel_class="fft")
