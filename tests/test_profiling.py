"""Tests for the profiler and its derived reports."""

import pytest

from repro.common import ConfigurationError
from repro.hardware import get_device
from repro.profiling import KernelRecord, Profile


class TestKernelRecord:
    def test_merge_accumulates(self):
        r = KernelRecord("k", "weno")
        r.merge(1.0, 100.0, 50.0)
        r.merge(2.0, 200.0, 100.0)
        assert r.seconds == 3.0 and r.flops == 300.0 and r.launches == 2

    def test_intensity(self):
        r = KernelRecord("k", "weno", seconds=1.0, flops=140.0, bytes=10.0)
        assert r.intensity == 14.0

    def test_intensity_requires_bytes(self):
        with pytest.raises(ConfigurationError):
            _ = KernelRecord("k", "weno").intensity

    def test_achieved_gflops(self):
        r = KernelRecord("k", "weno", seconds=2.0, flops=4e9, bytes=1.0)
        assert r.achieved_gflops == pytest.approx(2.0)


class TestProfile:
    def make(self):
        p = Profile(device_name="test")
        p.record("weno_x", "weno", 2.0, flops=1e9, nbytes=1e8)
        p.record("weno_y", "weno", 1.0, flops=5e8, nbytes=5e7)
        p.record("hllc", "riemann", 3.0, flops=1e9, nbytes=1e9)
        p.record("pack", "pack", 4.0, nbytes=1e10)
        return p

    def test_total_seconds(self):
        assert self.make().total_seconds() == 10.0

    def test_class_aggregation(self):
        cs = self.make().class_seconds()
        assert cs == {"weno": 3.0, "riemann": 3.0, "pack": 4.0}

    def test_class_fractions_sum_to_one(self):
        fr = self.make().class_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["pack"] == pytest.approx(0.4)

    def test_empty_profile_fractions(self):
        assert Profile().class_fractions() == {}

    def test_repeated_record_merges(self):
        p = Profile()
        p.record("k", "other", 1.0)
        p.record("k", "other", 2.0)
        assert p.records["k"].seconds == 3.0
        assert p.records["k"].launches == 2

    def test_class_change_rejected(self):
        p = Profile()
        p.record("k", "other", 1.0)
        with pytest.raises(ConfigurationError):
            p.record("k", "weno", 1.0)

    def test_grind_time(self):
        p = Profile()
        p.record("k", "other", 1.0)
        # 1 s over (1e6 cells * 10 PDEs * 10 evals) = 1e-8 s = 10 ns.
        assert p.grind_time_ns(cells=10**6, pdes=10, rhs_evals=10) == pytest.approx(10.0)

    def test_grind_time_validates(self):
        with pytest.raises(ConfigurationError):
            Profile().grind_time_ns(cells=0, pdes=1, rhs_evals=1)

    def test_roofline_points(self):
        p = self.make()
        pts = p.roofline_points(get_device("v100"))
        names = {pt.kernel for pt in pts}
        assert "hllc" in names
        assert "pack" not in names  # zero-flop kernels are not placed

    def test_roofline_points_filter(self):
        pts = self.make().roofline_points(get_device("v100"), kernels=("hllc",))
        assert len(pts) == 1 and pts[0].kernel == "hllc"

    def test_report_format(self):
        rep = self.make().report()
        assert "pack" in rep and "%" in rep and "test" in rep
        # Longest kernel first.
        lines = rep.splitlines()
        assert lines[2].startswith("pack")


class TestTallies:
    """A counter's fields are its record: ``as_dict`` lists them in
    declaration order and ``merge`` sums each one."""

    @pytest.fixture(params=["SweepCounters", "HaloCounters",
                            "RecoveryCounters"])
    def tally(self, request):
        import repro.profiling.counters as counters
        import repro.solver.resilience as resilience

        return getattr(counters, request.param, None) \
            or getattr(resilience, request.param)

    def test_as_dict_keys_are_the_fields(self, tally):
        import dataclasses

        names = [f.name for f in dataclasses.fields(tally)]
        assert list(tally().as_dict()) == names

    def test_merge_sums_every_field(self, tally):
        import dataclasses

        a, b = tally(), tally()
        for i, f in enumerate(dataclasses.fields(tally), start=1):
            if f.name == "checkpoint_skip_reasons":
                a.checkpoint_skip_reasons.update(crc=1)
                b.checkpoint_skip_reasons.update(crc=2, shape=1)
            else:
                setattr(a, f.name, i)
                setattr(b, f.name, 10 * i)
        a.merge(b)
        for i, f in enumerate(dataclasses.fields(tally), start=1):
            expect = ({"crc": 3, "shape": 1}
                      if f.name == "checkpoint_skip_reasons" else 11 * i)
            assert getattr(a, f.name) == expect, f.name

    def test_as_dict_copies_the_skip_reasons(self):
        from repro.solver.resilience import RecoveryCounters

        r = RecoveryCounters(checkpoint_skip_reasons={"crc": 1})
        r.as_dict()["checkpoint_skip_reasons"]["crc"] = 5
        assert r.checkpoint_skip_reasons == {"crc": 1}
