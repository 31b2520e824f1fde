"""End-to-end OpenACC-model integration: the paper's Listing 1 nest,
executed and priced across compilers and devices."""

import numpy as np
import pytest

from repro.acc import AccKernel, AccRuntime, ParallelLoopNest
from repro.acc.directives import PrivateArray, listing1_nest
from repro.hardware import get_device


def listing1(sized_private: bool) -> ParallelLoopNest:
    """Listing 1 (``collapse(3) gang vector default(present)``, ``seq``
    fluid loop) with ``private(alpha_rho_L(1:num_fluids))``: the
    symbolic ``num_fluids`` bound sizes the array at run time, the fixed
    ``alpha_rho_L(1:2)`` at compile time."""
    nest = listing1_nest(64, 64, 64, 2)
    return ParallelLoopNest(nest.loops, privates=(PrivateArray(
        "alpha_rho_L", 2, compile_time_size=sized_private),))


LISTING_1 = listing1(sized_private=False)
FIXED_LISTING_1 = listing1(sized_private=True)


def make_kernel(nest, name="riemann_kernel"):
    return AccKernel(
        name=name, nest=nest,
        body=lambda q: q * 1.5,
        kernel_class="riemann",
        flops_per_iter=100.0, bytes_per_iter=75.0,
        arrays=("q_prim",),
        calls_serial_subroutine=True, cross_module=True, fypp_inlined=True)


class TestListing1EndToEnd:
    def test_executes_real_body_under_present_check(self):
        rt = AccRuntime(get_device("v100"), "nvhpc")
        host = np.ones((4, 4))
        rt.data.enter_data("q_prim", host)
        out = rt.launch(make_kernel(LISTING_1), rt.data.device_view("q_prim"))
        np.testing.assert_array_equal(out, 1.5)
        assert rt.profile.total_seconds() > 0.0

    def test_private_cliff_reproduced_from_source_text(self):
        # The §III.D anecdote: run-time private size -> 30x on CCE+AMD;
        # compile-time size -> fixed.
        rt = AccRuntime(get_device("mi250x"), "cce")
        slow = rt.modeled_time(make_kernel(LISTING_1, "slow"))
        fast = rt.modeled_time(make_kernel(FIXED_LISTING_1, "fast"))
        # The ratio sits just under 30x because both kernels pay the
        # same fixed launch latency.
        assert slow / fast == pytest.approx(30.0, rel=0.08)

    def test_nvhpc_unaffected_by_private_size(self):
        rt = AccRuntime(get_device("v100"), "nvhpc")
        slow = rt.modeled_time(make_kernel(LISTING_1, "slow"))
        fast = rt.modeled_time(make_kernel(FIXED_LISTING_1, "fast"))
        assert slow == pytest.approx(fast)

    def test_cross_device_time_ordering(self):
        kernel = make_kernel(FIXED_LISTING_1)
        times = {}
        for key, compiler in (("gh200", "nvhpc"), ("a100", "nvhpc"),
                              ("v100", "nvhpc"), ("mi250x", "cce")):
            times[key] = AccRuntime(get_device(key), compiler).modeled_time(kernel)
        # Memory-bound kernel: ordering follows bandwidth x efficiency.
        assert times["gh200"] < times["a100"] < times["v100"]
