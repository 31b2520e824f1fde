"""Tests for durable checkpoints: atomicity metadata, CRC detection,
rotation, and corrupt-fallback restart.

The production promise under test: *any* single-file corruption — torn
write, flipped bit, wrong-dtype file — is detected at read time with a
clear :class:`CheckpointError`, and a restart falls back to the newest
checkpoint that is still whole.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import CheckpointError, ConfigurationError
from repro.eos import Mixture, StiffenedGas
from repro.faults import bitflip_file, corrupt_newest_checkpoint, truncate_file
from repro.grid import StructuredGrid
from repro.io import CheckpointManager, read_snapshot, verify_snapshot, write_snapshot
from repro.io.binary import HEADER_BYTES, MAGIC, NATIVE_DTYPE_STR, SnapshotHeader
from repro.solver import Case, Patch, RetryPolicy, Simulation, box, sphere

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))


def bubble_sim(n=16, **kwargs):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return Simulation(case, BoundarySet.all_periodic(2), cfl=0.4, **kwargs)


def random_q(seed=0, shape=(7, 6, 5)):
    return np.random.default_rng(seed).normal(size=shape)


def write_sets(directory, steps, *, ranks=1, keep=3, shape=(7, 6, 5)):
    """Save ``random_q(step)`` at each step as a set of ``ranks`` blocks
    split along the first spatial axis; returns the manager that writes
    the manifest.  Several ranks' managers share a run id and, as a
    rank's do, write their blocks before the manifest (here rank 0
    saves last, so no barrier is needed)."""
    n = shape[1] // ranks
    blocks = None if ranks == 1 else [
        (f"rank{r:04d}", [r * n] + [0] * (len(shape) - 2))
        for r in range(ranks)]
    managers = [CheckpointManager(directory, keep=keep, blocks=blocks,
                                  block=r, run_id="run")
                for r in range(ranks)]
    for step in steps:
        q = random_q(step, shape)
        for r in reversed(range(ranks)):
            managers[r].save(q[:, r * n:(r + 1) * n], step=step,
                             time=float(step))
    return managers[0]


def last_block(manager, step):
    """The last block of the set at ``step`` (rank 1's of a 2-rank set)."""
    return [p for p in manager.checkpoints()
            if p.stem.endswith(f"_{step:09d}")][-1]


class TestSnapshotIntegrity:
    def test_roundtrip_preserves_metadata(self, tmp_path):
        path = tmp_path / "snap.bin"
        q = random_q(1)
        write_snapshot(path, q, step=12, time=0.5)
        header, back = read_snapshot(path)
        np.testing.assert_array_equal(q, back)
        assert header.step == 12 and header.time == 0.5
        assert header.dtype_str == NATIVE_DTYPE_STR
        assert header.order == "C"
        assert verify_snapshot(path) == header

    def test_payload_bitflip_detected(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, random_q(2), step=1, time=0.0)
        flips = bitflip_file(path, seed=99, skip_bytes=HEADER_BYTES)
        assert flips and flips[0][0] >= HEADER_BYTES
        with pytest.raises(CheckpointError, match="payload"):
            read_snapshot(path)

    def test_header_bitflip_detected(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, random_q(3), step=1, time=0.0)
        # Corrupt a header byte past the magic (offset 6 = ndim field).
        with path.open("rb+") as fh:
            fh.seek(6)
            b = fh.read(1)[0]
            fh.seek(6)
            fh.write(bytes([b ^ 0x01]))
        with pytest.raises(CheckpointError):
            read_snapshot(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, random_q(4), step=1, time=0.0)
        removed = truncate_file(path, keep_fraction=0.6)
        assert removed > 0
        with pytest.raises(CheckpointError, match="truncated"):
            read_snapshot(path)

    def test_foreign_dtype_reported_clearly(self, tmp_path):
        # Hand-craft a v2 file recording float32 payloads: the reader
        # must name the dtype mismatch, not mis-diagnose truncation.
        path = tmp_path / "alien.bin"
        header = SnapshotHeader(step=0, time=0.0, nvars=2, shape=(4,),
                                dtype_str="<f4")
        payload = np.zeros((2, 4), dtype="<f4").tobytes()
        path.write_bytes(header.pack(payload_crc=zlib.crc32(payload)) + payload)
        with pytest.raises(CheckpointError, match="<f4"):
            read_snapshot(path)

    def test_foreign_endianness_reported(self, tmp_path):
        path = tmp_path / "bigend.bin"
        header = SnapshotHeader(step=0, time=0.0, nvars=2, shape=(4,),
                                dtype_str=">f8")
        payload = np.zeros((2, 4), dtype=">f8").tobytes()
        path.write_bytes(header.pack(payload_crc=zlib.crc32(payload)) + payload)
        with pytest.raises(CheckpointError, match=">f8"):
            read_snapshot(path)

    def test_v1_headers_still_readable(self, tmp_path):
        # Pre-CRC files (version 1, 56-byte header) keep loading.
        path = tmp_path / "old.bin"
        q = random_q(5, shape=(3, 4, 4))
        raw = struct.pack("<4sHHqd4q", MAGIC, 1, q.ndim - 1, 9, 0.25,
                          q.shape[0], q.shape[1], q.shape[2], 0)
        path.write_bytes(raw + q.tobytes())
        header, back = read_snapshot(path)
        assert header.version == 1 and header.step == 9
        np.testing.assert_array_equal(q, back)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, random_q(6), step=1, time=0.0)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "snap.bin"]
        assert leftovers == []


class TestCheckpointManager:
    def test_rotation_keeps_newest_k(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        q = random_q(7)
        for step in (1, 2, 3, 4):
            mgr.save(q, step=step, time=0.1 * step)
        names = [p.name for p in mgr.checkpoints()]
        assert names == ["ckpt_000000003.bin", "ckpt_000000004.bin"]

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_sets_of_any_rank_count_restore_whole(self, tmp_path, ranks):
        mgr = write_sets(tmp_path, (1, 2), ranks=ranks)
        names = sorted(p.name for p in tmp_path.iterdir())
        blocks = ["ckpt"] if ranks == 1 else ["rank0000", "rank0001"]
        assert names == sorted(
            [f"ckpt_{s:09d}.json" for s in (1, 2)]
            + [f"{b}_{s:09d}.bin" for b in blocks for s in (1, 2)])
        path, header, q = mgr.load_latest(expect_shape=(7, 6, 5))
        assert path == mgr.manifest_for(2)
        assert (header.step, header.time, header.shape) == (2, 2.0, (6, 5))
        np.testing.assert_array_equal(q, random_q(2))

    def test_corrupt_newest_falls_back(self, tmp_path):
        for ranks in (1, 2):
            mgr = write_sets(tmp_path / f"ranks{ranks}", (1, 2, 3),
                             ranks=ranks)
            bitflip_file(last_block(mgr, 3), seed=5, skip_bytes=HEADER_BYTES)
            path, header, q = mgr.load_latest()
            assert path == mgr.manifest_for(2) and header.step == 2
            np.testing.assert_array_equal(q, random_q(2))
            assert mgr.rejected == 1 and mgr.verified == 1

    def test_all_corrupt_raises_with_reasons(self, tmp_path):
        for ranks in (1, 2):
            mgr = write_sets(tmp_path / f"ranks{ranks}", (1, 2), ranks=ranks)
            one, two = last_block(mgr, 1), last_block(mgr, 2)
            truncate_file(one, keep_fraction=0.3)
            bitflip_file(two, seed=8, skip_bytes=HEADER_BYTES)
            with pytest.raises(CheckpointError) as err:
                mgr.load_latest()
            assert one.name in str(err.value)
            assert two.name in str(err.value)

    def test_missing_overwritten_or_foreign_blocks_rejected(self, tmp_path):
        mgr = write_sets(tmp_path, (1, 2, 3), ranks=2)
        last_block(mgr, 3).unlink()
        # Another run's block under the same name: intact, but not the
        # one set 2's manifest names.
        CheckpointManager(tmp_path, prefix="other", blocks=[
            ("rank0001", None)]).save(random_q(9, (7, 3, 5)), step=2,
                                      time=2.0)
        path, header, q = mgr.load_latest()
        assert header.step == 1
        np.testing.assert_array_equal(q, random_q(1))
        assert mgr.skip_reasons == {"missing": 1, "mismatch": 1}
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            mgr.load_latest(run_id="another run")

    def test_chaos_corrupts_one_block_of_the_newest_set(self, tmp_path):
        mgr = write_sets(tmp_path, (1, 2), ranks=2)
        victim = corrupt_newest_checkpoint(tmp_path, prefix="ckpt", seed=3)
        assert victim.name == "rank0001_000000002.bin"  # seed 3 of 2 blocks
        _, header, q = mgr.load_latest()
        assert header.step == 1 and mgr.rejected == 1
        np.testing.assert_array_equal(q, random_q(1))

    def test_a_run_keeps_its_own_newest_sets(self, tmp_path):
        # Run 1's sets neither count toward run 2's keep nor survive its
        # first save, and a set it overwrote is run 2's whole.
        first = CheckpointManager(tmp_path, keep=3)
        for step in (2, 4, 6, 8):
            first.save(random_q(step), step=step, time=float(step))
        second = CheckpointManager(tmp_path, keep=3)
        for step in (2, 4):
            second.save(random_q(10 + step), step=step, time=float(step))
        assert [p.name for p in second.checkpoints()] == \
            ["ckpt_000000002.bin", "ckpt_000000004.bin"]
        _, header, q = CheckpointManager(tmp_path).load_latest()
        assert header.step == 4
        np.testing.assert_array_equal(q, random_q(14))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointManager(tmp_path / "void").load_latest()

    def test_shape_mismatch_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(random_q(9, shape=(3, 8)), step=1, time=0.0)
        with pytest.raises(CheckpointError, match="does not match"):
            mgr.load_latest(expect_shape=(3, 9))

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, keep=0)
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, prefix="../evil")


class TestSimulationCheckpointing:
    def test_run_writes_rotating_checkpoints(self, tmp_path):
        sim = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path,
                         checkpoint_keep=2)
        sim.run(n_steps=7)
        steps = [p.name for p in sim.checkpoint_manager.checkpoints()]
        assert steps == ["ckpt_000000004.bin", "ckpt_000000006.bin"]
        assert sim.recovery.checkpoints_written == 3
        assert sim.recovery.checkpoint_seconds > 0.0

    def test_second_run_in_a_used_directory_resumes_itself(self, tmp_path):
        first = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path)
        first.run(n_steps=8)  # keeps sets 4, 6 and 8
        second = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path)
        second.run(n_steps=4)  # sets 2 and 4
        assert [p.name for p in second.checkpoint_manager.checkpoints()] == \
            ["ckpt_000000002.bin", "ckpt_000000004.bin"]
        resumed = bubble_sim(checkpoint_dir=tmp_path)
        assert resumed.restore_latest().name == "ckpt_000000004.json"
        assert resumed.step_count == 4
        np.testing.assert_array_equal(resumed.q, second.q)

    def test_restore_latest_resumes_bit_identically(self, tmp_path):
        straight = bubble_sim()
        straight.run(n_steps=8)

        crashed = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path)
        crashed.run(n_steps=5)  # checkpoints at 2 and 4

        resumed = bubble_sim(checkpoint_dir=tmp_path)
        path = resumed.restore_latest()
        assert path.name == "ckpt_000000004.json"
        assert resumed.step_count == 4
        assert resumed.recovery.restarts == 1
        resumed.run(n_steps=4)
        np.testing.assert_array_equal(resumed.q, straight.q)
        assert resumed.time == straight.time

    def test_restore_latest_skips_corrupt_newest(self, tmp_path):
        crashed = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path,
                             checkpoint_keep=3)
        crashed.run(n_steps=6)
        # The "node died mid-write" scenario on the newest checkpoint.
        truncate_file(crashed.checkpoint_manager.path_for(6),
                      keep_fraction=0.5)

        resumed = bubble_sim(checkpoint_dir=tmp_path)
        path = resumed.restore_latest()
        assert path.name == "ckpt_000000004.json"
        assert resumed.recovery.checkpoints_rejected == 1
        assert resumed.recovery.checkpoints_verified == 1
        assert resumed.step_count == 4

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            bubble_sim(checkpoint_every=5)

    def test_restore_latest_counts_restart(self, tmp_path):
        sim = bubble_sim(checkpoint_dir=tmp_path)
        sim.run(n_steps=3)
        sim.checkpoint_now()
        sim.restore_latest()
        assert sim.recovery.restarts == 1
        assert sim.recovery.checkpoints_verified == 1


class TestCaseFileWiring:
    def spec(self, solver):
        return {
            "grid": {"bounds": [[0.0, 1.0]], "shape": [16]},
            "fluids": [{"gamma": 1.4}],
            "patches": [{"geometry": {"kind": "box", "lo": [0.0], "hi": [1.0]},
                         "alpha_rho": [1.0], "velocity": [0.0],
                         "pressure": 1.0, "alpha": []}],
            "solver": solver,
        }

    def test_resilience_options_parsed(self):
        from repro.io.case_files import solver_options_from_dict
        from repro.solver import RetryPolicy

        opts = solver_options_from_dict(self.spec({
            "checkpoint_every": 10, "checkpoint_keep": 5,
            "checkpoint_dir": "ckpts", "validate_every": 4,
            "retry": {"max_retries": 2, "same_dt_retries": 0}}))
        assert opts["checkpoint_every"] == 10
        assert opts["checkpoint_keep"] == 5
        assert opts["checkpoint_dir"] == "ckpts"
        assert opts["validate_every"] == 4
        assert opts["retry"] == RetryPolicy(max_retries=2, same_dt_retries=0)

    @pytest.mark.parametrize("solver", [
        {"checkpoint_every": -1},
        {"checkpoint_every": True},
        {"checkpoint_keep": 0},
        {"checkpoint_dir": ""},
        {"validate_every": "often"},
        {"retry": {"max_retries": -2}},
        {"retry": 7},
        {"checkpoints": 3},  # unknown key
    ])
    def test_invalid_options_rejected(self, solver):
        from repro.io.case_files import solver_options_from_dict

        with pytest.raises(ConfigurationError):
            solver_options_from_dict(self.spec(solver))


class TestRetriesFlag:
    """``--retries N`` sets ``max_retries`` of the file's (else the
    default) policy — it used to replace the whole block and crash on 0."""

    SPEC = TestCaseFileWiring().spec

    def _options(self, tmp_path, solver, *flags):
        import json

        from repro.__main__ import build_parser
        from repro.io.case_files import load_solver_options
        from repro.solver.options import fold

        path = tmp_path / "case.json"
        path.write_text(json.dumps(self.SPEC(solver)))
        args = build_parser().parse_args(["run", str(path), "--steps", "1",
                                          *flags])
        return fold(None, load_solver_options(path)).overridden_by(args)

    def test_zero_retries_runs(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        path = tmp_path / "case.json"
        path.write_text(json.dumps(self.SPEC({})))
        assert main(["run", str(path), "--steps", "1", "--retries", "0"]) == 0
        assert self._options(tmp_path, {}, "--retries", "0").retry == \
            RetryPolicy(max_retries=0, same_dt_retries=0)

    def test_flag_keeps_the_files_backoff_and_escalation(self, tmp_path):
        block = {"max_retries": 6, "same_dt_retries": 2, "backoff": 0.25,
                 "escalation": ["first_order"]}
        assert self._options(tmp_path, {"retry": block}).retry == \
            RetryPolicy(6, 2, 0.25, ("first_order",))
        assert self._options(tmp_path, {"retry": block},
                             "--retries", "3").retry == \
            RetryPolicy(3, 2, 0.25, ("first_order",))
        assert self._options(tmp_path, {"retry": block},
                             "--retries", "1").retry == \
            RetryPolicy(1, 1, 0.25, ("first_order",))

    def test_errors_print_one_line_and_exit_2(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        path = tmp_path / "case.json"
        path.write_text(json.dumps(self.SPEC({"checkpoint_every": 2})))
        assert main(["run", str(path), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert err == ("repro: error: checkpoint_every requires a "
                       "checkpoint_dir\n")


class TestSkipDiagnostics:
    """Satellite of the durable service: a skipped checkpoint is a
    *named* event with a reason category, not a silent counter bump."""

    def test_skip_reasons_categorised(self, tmp_path):
        for ranks in (1, 2):
            mgr = write_sets(tmp_path / f"ranks{ranks}", (1, 2, 3),
                             ranks=ranks)
            three, two = last_block(mgr, 3), last_block(mgr, 2)
            bitflip_file(three, seed=5, skip_bytes=HEADER_BYTES)
            truncate_file(two, keep_fraction=0.3)
            mgr.load_latest()
            assert mgr.skip_reasons == {"crc": 1, "truncated": 1}
            kinds = [(e["kind"], e["checkpoint"], e["reason"])
                     for e in mgr.events]
            assert ("checkpoint-skip", three.name, "crc") in kinds
            assert ("checkpoint-skip", two.name, "truncated") in kinds

    def test_shape_mismatch_reason(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        mgr.save(random_q(1, shape=(3, 8)), step=1, time=0.0)
        with pytest.raises(CheckpointError, match="does not match"):
            mgr.load_latest(expect_shape=(3, 9))
        assert mgr.skip_reasons == {"shape": 1}
        assert mgr.events[0]["reason"] == "shape"

    def test_restore_latest_folds_skips_into_recovery(self, tmp_path):
        crashed = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path,
                             checkpoint_keep=3)
        crashed.run(n_steps=7)  # checkpoints at 2, 4, 6
        bitflip_file(crashed.checkpoint_manager.path_for(6), seed=3,
                     skip_bytes=HEADER_BYTES)

        resumed = bubble_sim(checkpoint_dir=tmp_path)
        resumed.restore_latest()
        rec = resumed.recovery
        assert rec.restarts == 1
        assert rec.checkpoints_rejected == 1
        assert rec.checkpoint_skip_reasons == {"crc": 1}
        assert "skipped: crc:1" in rec.summary()
        assert rec.as_dict()["checkpoint_skip_reasons"] == {"crc": 1}

    def test_clean_restore_reports_no_skips(self, tmp_path):
        crashed = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path)
        crashed.run(n_steps=4)
        resumed = bubble_sim(checkpoint_dir=tmp_path)
        resumed.restore_latest()
        assert resumed.recovery.checkpoint_skip_reasons == {}
        assert "skipped" not in resumed.recovery.summary()
