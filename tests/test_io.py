"""Tests for binary snapshots, the SILO-analog post-processor, JSON case
files, and the CLI."""

import json

import numpy as np
import pytest

from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.io import (
    case_from_dict,
    case_to_dict,
    export_silo,
    load_case,
    load_silo,
    read_snapshot,
    save_case,
    write_snapshot,
)
from repro.io.binary import SnapshotHeader
from repro.state import StateLayout

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


def random_field(nvars=5, shape=(6, 4), seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((nvars, *shape)).astype(DTYPE)


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        q = random_field()
        path = tmp_path / "snap.bin"
        nbytes = write_snapshot(path, q, step=42, time=1.5)
        header, back = read_snapshot(path)
        assert header.step == 42 and header.time == 1.5
        assert header.shape == (6, 4)
        np.testing.assert_array_equal(back, q)
        assert nbytes == path.stat().st_size

    def test_3d_roundtrip(self, tmp_path):
        q = random_field(shape=(3, 4, 5))
        write_snapshot(tmp_path / "s.bin", q, step=0, time=0.0)
        _, back = read_snapshot(tmp_path / "s.bin")
        np.testing.assert_array_equal(back, q)

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_snapshot(tmp_path / "s.bin", np.zeros((2, 3), dtype=np.int64),
                           step=0, time=0.0)

    def test_float32_state_upcasts_losslessly(self, tmp_path):
        # float32 marches checkpoint through a lossless float64 upcast;
        # casting the payload back down restores the exact float32 bits.
        rng = np.random.default_rng(7)
        q32 = rng.random((2, 3, 4), dtype=np.float32)
        write_snapshot(tmp_path / "s.bin", q32, step=3, time=0.5)
        _, q = read_snapshot(tmp_path / "s.bin")
        assert q.dtype == np.float64
        assert q.astype(np.float32).tobytes() == q32.tobytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ConfigurationError):
            read_snapshot(path)

    def test_truncation_detected(self, tmp_path):
        q = random_field()
        path = tmp_path / "s.bin"
        write_snapshot(path, q, step=0, time=0.0)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ConfigurationError):
            read_snapshot(path)

    def test_header_pack_unpack(self):
        h = SnapshotHeader(step=7, time=0.25, nvars=5, shape=(8, 9, 10))
        header, payload_crc = SnapshotHeader.unpack(h.pack(payload_crc=41))
        assert header == h
        assert payload_crc == 41

    @pytest.mark.parametrize("shape,order", [
        ((6, 13), "C"), ((7, 5, 4), "C"), ((5, 3, 4, 6), "F"),
        ((3, 0), "C")])
    def test_streamed_payload_is_the_copied_one(self, tmp_path, shape,
                                                order):
        """The field's own buffer is CRC'd and written (no ``tobytes``
        copy) and read back in place: files byte-identical to the copy's
        spelling, a non-contiguous field included."""
        import zlib

        rng = np.random.default_rng(sum(shape))
        q = np.asarray(rng.standard_normal(shape), order=order)
        path = tmp_path / "s.bin"
        nbytes = write_snapshot(path, q, step=9, time=0.125)
        payload = np.ascontiguousarray(q).tobytes()
        header = SnapshotHeader(step=9, time=0.125, nvars=shape[0],
                                shape=shape[1:])
        assert path.read_bytes() == header.pack(zlib.crc32(payload)) + payload
        assert nbytes == path.stat().st_size
        back_header, back = read_snapshot(path)
        assert back_header == header
        assert back.flags.writeable and back.tobytes() == payload

    def test_truncated_payload_reads_nothing(self, tmp_path):
        path = tmp_path / "s.bin"
        write_snapshot(path, random_field(), step=0, time=0.0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigurationError, match=r"952 of 960 bytes"):
            read_snapshot(path)


class TestSilo:
    def test_export_and_load(self, tmp_path):
        grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (8, 6))
        layout = StateLayout(2, 2)
        rng = np.random.default_rng(0)
        prim = np.empty((layout.nvars, 8, 6))
        prim[layout.partial_densities] = rng.uniform(0.5, 1.0, (2, 8, 6))
        prim[layout.velocity] = rng.uniform(-1, 1, (2, 8, 6))
        prim[layout.pressure] = rng.uniform(0.5, 1.5, (8, 6))
        prim[layout.advected] = 0.5
        from repro.state import prim_to_cons
        q = prim_to_cons(layout, MIX, prim)
        write_snapshot(tmp_path / "s.bin", q, step=3, time=0.75)

        db = export_silo(tmp_path / "s.bin", tmp_path / "viz.npz", grid, MIX)
        assert {"coord_x", "coord_y", "pressure", "density", "speed",
                "vorticity_z", "alpha_0"} <= set(db)
        np.testing.assert_allclose(db["pressure"], prim[layout.pressure],
                                   rtol=1e-10)
        np.testing.assert_allclose(db["density"],
                                   prim[layout.partial_densities].sum(axis=0),
                                   rtol=1e-10)

        loaded = load_silo(tmp_path / "viz.npz")
        np.testing.assert_array_equal(loaded["pressure"], db["pressure"])
        assert int(loaded["step"]) == 3

    def test_grid_mismatch_rejected(self, tmp_path):
        grid = StructuredGrid.uniform(((0.0, 1.0),), (8,))
        q = random_field(nvars=5, shape=(9,))
        write_snapshot(tmp_path / "s.bin", q, step=0, time=0.0)
        with pytest.raises(ConfigurationError):
            export_silo(tmp_path / "s.bin", tmp_path / "v.npz", grid, MIX)


SOD_SPEC = {
    "grid": {"bounds": [[0.0, 1.0]], "shape": [64]},
    "fluids": [{"gamma": 1.4}, {"gamma": 1.4}],
    "patches": [
        {"geometry": {"kind": "box", "lo": [0.0], "hi": [1.0]},
         "alpha_rho": [0.0625, 0.0625], "velocity": [0.0],
         "pressure": 0.1, "alpha": [0.5]},
        {"geometry": {"kind": "halfspace", "axis": 0, "threshold": 0.5},
         "alpha_rho": [0.5, 0.5], "velocity": [0.0],
         "pressure": 1.0, "alpha": [0.5]},
    ],
}


class TestCaseFiles:
    def test_case_from_dict(self):
        case = case_from_dict(SOD_SPEC)
        assert case.grid.shape == (64,)
        assert case.mixture.ncomp == 2
        q = case.initial_conservative()
        assert np.all(np.isfinite(q))

    def test_missing_section(self):
        with pytest.raises(ConfigurationError):
            case_from_dict({"grid": SOD_SPEC["grid"]})

    def test_unknown_geometry(self):
        spec = json.loads(json.dumps(SOD_SPEC))
        spec["patches"][0]["geometry"] = {"kind": "torus"}
        with pytest.raises(ConfigurationError):
            case_from_dict(spec)

    def test_sphere_and_stretching(self):
        spec = {
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [16, 16],
                     "stretching": {"focus": [0.5, 0.5], "strength": 3.0}},
            "fluids": [{"gamma": 1.4}, {"gamma": 6.12, "pi_inf": 3.43e8}],
            "patches": [
                {"geometry": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
                 "alpha_rho": [1.2, 0.001], "velocity": [0, 0],
                 "pressure": 1e5, "alpha": [0.999]},
                {"geometry": {"kind": "sphere", "center": [0.5, 0.5],
                              "radius": 0.2},
                 "alpha_rho": [0.001, 1000.0], "velocity": [0, 0],
                 "pressure": 1e5, "alpha": [0.001], "smear": 0.02},
            ],
        }
        case = case_from_dict(spec)
        assert case.grid.min_width() < 1.0 / 16.0  # stretching applied
        case.initial_conservative()

    def test_save_and_load_roundtrip(self, tmp_path):
        save_case(tmp_path / "sod.json", SOD_SPEC)
        case = load_case(tmp_path / "sod.json")
        q1 = case.initial_conservative()
        q2 = case_from_dict(SOD_SPEC).initial_conservative()
        np.testing.assert_array_equal(q1, q2)

    def test_case_to_dict_roundtrip(self):
        case = case_from_dict(SOD_SPEC)
        spec = case_to_dict(case, geometries=[p["geometry"]
                                              for p in SOD_SPEC["patches"]])
        q1 = case_from_dict(spec).initial_conservative()
        q2 = case.initial_conservative()
        np.testing.assert_array_equal(q1, q2)

    def test_unknown_top_level_key_is_named(self):
        spec = {**SOD_SPEC, "_comment": "allowed", "solvr": {"cfl": 0.4}}
        with pytest.raises(ConfigurationError, match=r"case file key\(s\) "
                           r"\['solvr'\]; choose from \['fluids', 'grid', "
                           r"'patches', 'solver'\]"):
            case_from_dict(spec)

    def test_save_validates(self, tmp_path):
        bad = {"grid": {"bounds": [[0, 1]], "shape": [8]}, "fluids": [],
               "patches": []}
        with pytest.raises(ConfigurationError):
            save_case(tmp_path / "bad.json", bad)


class TestCLI:
    def test_run_and_postprocess(self, tmp_path, capsys):
        from repro.__main__ import main

        case_path = tmp_path / "sod.json"
        save_case(case_path, SOD_SPEC)
        snap = tmp_path / "out.bin"
        silo = tmp_path / "out.npz"
        rc = main(["run", str(case_path), "--steps", "5",
                   "--snapshot", str(snap), "--silo", str(silo)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5 steps" in out and "grind" in out
        assert snap.exists() and silo.exists()

        rc = main(["postprocess", str(snap), str(case_path),
                   str(tmp_path / "again.npz")])
        assert rc == 0

    def test_devices_listing(self, capsys):
        from repro.__main__ import main

        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "mi250x" in out and "gh200" in out

    def test_run_requires_exactly_one_duration(self, tmp_path):
        from repro.__main__ import main

        case_path = tmp_path / "sod.json"
        save_case(case_path, SOD_SPEC)
        with pytest.raises(SystemExit):
            main(["run", str(case_path)])
        with pytest.raises(SystemExit):
            main(["run", str(case_path), "--steps", "2", "--t-end", "0.1"])

    def test_misspelt_section_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        case_path = tmp_path / "sod.json"
        case_path.write_text(json.dumps({**SOD_SPEC, "solvr": {}}))
        assert main(["run", str(case_path), "--steps", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro: error: unknown case file key(s) ['solvr']")


class TestCLIPipeline:
    def test_three_stage_pipeline(self, tmp_path, capsys):
        """MFC's pre_process -> simulation -> post_process toolchain."""
        from repro.__main__ import main

        case_path = tmp_path / "sod.json"
        save_case(case_path, SOD_SPEC)
        ic = tmp_path / "ic.bin"
        assert main(["preprocess", str(case_path), str(ic)]) == 0
        header, q0 = read_snapshot(ic)
        assert header.step == 0 and header.time == 0.0

        snap = tmp_path / "final.bin"
        assert main(["run", str(case_path), "--steps", "3",
                     "--snapshot", str(snap)]) == 0
        viz = tmp_path / "final.npz"
        assert main(["postprocess", str(snap), str(case_path), str(viz)]) == 0
        db = load_silo(viz)
        assert "density" in db


class TestCLISeries:
    def test_run_with_series(self, tmp_path):
        from repro.__main__ import main
        from repro.io.series import SeriesReader

        case_path = tmp_path / "sod.json"
        save_case(case_path, SOD_SPEC)
        series_dir = tmp_path / "series"
        rc = main(["run", str(case_path), "--steps", "6",
                   "--series", str(series_dir), "--series-interval", "2"])
        assert rc == 0
        reader = SeriesReader(series_dir)
        assert [e.step for e in reader.entries] == [0, 2, 4, 6]
