"""The OpenACC device data environment (paper §III.B, Listings 3-6).

Tracks which arrays are resident on the device, prices host<->device
traffic through a :class:`~repro.hardware.transfer.TransferModel`, and
enforces the residency rules the real runtime enforces:

* a kernel with ``default(present)`` may only touch arrays already in a
  data region (otherwise the real code faults at runtime — here,
  :class:`DirectiveError`),
* ``host_data use_device`` (the library-dispatch bracket of Listings
  3-6) likewise requires the named arrays to be present,
* ``update host/device`` moves data and accrues modeled transfer time.

Functionally, "device memory" is a shadow copy of each array, so stale
host reads after device-side mutation are *observable* — tests exercise
exactly the bug class OpenACC data clauses exist to prevent.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.backend import resolve_backend, to_host_array
from repro.common import DirectiveError
from repro.hardware.transfer import TransferModel, PCIE4


class DeviceDataEnvironment:
    """Device-resident shadow copies with transfer-cost accounting.

    ``backend`` chooses where the shadow copies actually live: the
    default NumPy backend keeps the historical host-shadow semantics,
    while any :mod:`repro.backend` backend makes ``enter_data`` a real
    H2D transfer (``Backend.from_host``) and ``update_host`` /
    ``copyout`` a real D2H (``Backend.to_host``) — the same seam the
    solver's workspace uses, so the directive-runtime emulation and the
    execution backends agree on what "resident on the device" means.
    """

    def __init__(self, transfer: TransferModel = PCIE4, *,
                 backend: object = None):
        self.transfer = transfer
        self.backend = resolve_backend(backend)
        self._device: dict[str, np.ndarray] = {}
        self.h2d_seconds = 0.0
        self.d2h_seconds = 0.0
        self.h2d_bytes = 0
        self.d2h_bytes = 0

    # -- residency ---------------------------------------------------------
    def is_present(self, name: str) -> bool:
        return name in self._device

    def require_present(self, *names: str) -> None:
        missing = [n for n in names if n not in self._device]
        if missing:
            raise DirectiveError(
                f"arrays not present on device: {missing} "
                f"(FATAL: data in PRESENT clause was not found on device)")

    # -- data movement -------------------------------------------------------
    def enter_data(self, name: str, host: np.ndarray, *, copyin: bool = True) -> None:
        """``!$acc enter data copyin(name)`` (or ``create`` when copyin=False)."""
        if name in self._device:
            raise DirectiveError(f"array {name!r} already present on device")
        if copyin:
            # H2D through the backend seam.  from_host shares memory
            # (numpy, checked), so copy first:
            # shadow semantics require device mutations to stay
            # invisible to the host until an explicit update.
            self._device[name] = self.backend.from_host(host.copy())
        else:
            self._device[name] = self.backend.empty(
                tuple(host.shape), host.dtype)
        if copyin:
            self.h2d_seconds += self.transfer.time(host.nbytes)
            self.h2d_bytes += host.nbytes

    def exit_data(self, name: str, host: np.ndarray | None = None, *,
                  copyout: bool = False) -> None:
        """``!$acc exit data`` with optional ``copyout`` into ``host``."""
        self.require_present(name)
        dev = self._device.pop(name)
        if copyout:
            if host is None:
                raise DirectiveError("copyout requires a host array")
            np.copyto(host, to_host_array(dev))
            self.d2h_seconds += self.transfer.time(host.nbytes)
            self.d2h_bytes += host.nbytes

    def update_device(self, name: str, host: np.ndarray) -> None:
        """``!$acc update device(name)``."""
        self.require_present(name)
        dev = self._device[name]
        if isinstance(dev, np.ndarray):
            np.copyto(dev, host)
        else:
            dev[...] = self.backend.from_host(host)
        self.h2d_seconds += self.transfer.time(host.nbytes)
        self.h2d_bytes += host.nbytes

    def update_host(self, name: str, host: np.ndarray) -> None:
        """``!$acc update host(name)``."""
        self.require_present(name)
        np.copyto(host, to_host_array(self._device[name]))
        self.d2h_seconds += self.transfer.time(host.nbytes)
        self.d2h_bytes += host.nbytes

    # -- access from kernels / libraries ------------------------------------
    def device_view(self, name: str) -> np.ndarray:
        """The device copy itself (what a kernel dereferences)."""
        self.require_present(name)
        return self._device[name]

    @contextmanager
    def host_data_use_device(self, *names: str):
        """``!$acc host_data use_device(...)`` — yields the device arrays.

        This is the bracket inside which Listings 3-6 call
        cuTENSOR/hipBLAS/cuFFT/hipFFT with device pointers.
        """
        self.require_present(*names)
        yield tuple(self._device[n] for n in names)

    # -- bookkeeping ---------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return sum(a.nbytes for a in self._device.values())

    @property
    def total_transfer_seconds(self) -> float:
        return self.h2d_seconds + self.d2h_seconds
