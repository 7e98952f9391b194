"""Device-memory allocator with capacity accounting.

The multi-tile algorithm exists partly because "despite the limited device
memory, our algorithm can process arbitrary large ... problems" (Section
III-B).  To make that constraint real in the simulation, every device-side
array is allocated through :class:`DeviceMemory`, which enforces the
device's capacity and raises :class:`DeviceOutOfMemoryError` on exhaustion
— exactly the failure an untiled run would hit on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .device import DeviceSpec

__all__ = ["DeviceOutOfMemoryError", "DeviceAllocation", "DeviceMemory"]


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation exceeds the simulated device capacity."""

    def __init__(self, requested: int, available: int, device: str):
        self.requested = requested
        self.available = available
        self.device = device
        super().__init__(
            f"device {device}: out of memory "
            f"(requested {requested} B, {available} B available)"
        )


@dataclass
class DeviceAllocation:
    """Handle to one device-resident array.

    The backing storage is a real numpy array (the kernels do real math);
    the handle exists so the allocator can track and reclaim footprint.
    """

    array: np.ndarray
    label: str
    _pool: "DeviceMemory | None" = field(repr=False, default=None)
    reserved_bytes: int = 0  # for storage-less reservations

    @property
    def nbytes(self) -> int:
        return self.reserved_bytes if self.reserved_bytes else self.array.nbytes

    def free(self) -> None:
        """Return this allocation's bytes to the pool (idempotent)."""
        if self._pool is not None:
            self._pool._release(self)
            self._pool = None


class DeviceMemory:
    """Bump-accounted allocator for one simulated device.

    Not a real sub-allocator — numpy owns the bytes — but it provides the
    two behaviours the algorithms rely on: capacity enforcement and a
    high-water mark for reporting memory footprint per precision mode.
    """

    def __init__(self, device: DeviceSpec):
        self.device = device
        self.capacity = device.mem_capacity
        self.in_use = 0
        self.high_water = 0
        self._live: dict[int, DeviceAllocation] = {}

    def alloc(
        self, shape: tuple[int, ...] | int, dtype: np.dtype, label: str = ""
    ) -> DeviceAllocation:
        """Allocate a zero-initialised device array of ``shape``/``dtype``."""
        dtype = np.dtype(dtype)
        if isinstance(shape, int):
            shape = (shape,)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if self.in_use + nbytes > self.capacity:
            raise DeviceOutOfMemoryError(
                nbytes, self.capacity - self.in_use, self.device.name
            )
        arr = np.zeros(shape, dtype=dtype)
        handle = DeviceAllocation(array=arr, label=label, _pool=self)
        self.in_use += nbytes
        self.high_water = max(self.high_water, self.in_use)
        self._live[id(handle)] = handle
        return handle

    def reserve(self, nbytes: int, label: str = "") -> "DeviceAllocation":
        """Account ``nbytes`` of device footprint without backing storage.

        Used for working-set reservations (kernel intermediates whose
        numerics live in transient numpy temporaries): the capacity check
        and high-water tracking behave exactly as for real allocations.
        """
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes: {nbytes}")
        if self.in_use + nbytes > self.capacity:
            raise DeviceOutOfMemoryError(
                nbytes, self.capacity - self.in_use, self.device.name
            )
        handle = DeviceAllocation(
            array=np.empty(0, dtype=np.uint8), label=label or "reserved", _pool=self
        )
        # Track the reservation size explicitly (the backing array is empty).
        handle.reserved_bytes = nbytes
        self.in_use += nbytes
        self.high_water = max(self.high_water, self.in_use)
        self._live[id(handle)] = handle
        return handle

    def reserve_transient(self, parts) -> None:
        """Take and at once release a footprint allocated in ``parts``.

        The capacity checks and the high-water mark are exactly those of
        allocating each part (bytes) on top of the ones before it, in
        order, and then freeing them all: the first part that does not
        fit raises :class:`DeviceOutOfMemoryError` naming it, after the
        parts before it raised the high-water mark.  No handle is
        created and ``in_use`` is unchanged on return.
        """
        total = 0
        for nbytes in parts:
            if self.in_use + total + nbytes > self.capacity:
                self.high_water = max(self.high_water, self.in_use + total)
                raise DeviceOutOfMemoryError(
                    nbytes, self.capacity - self.in_use - total, self.device.name
                )
            total += nbytes
        self.high_water = max(self.high_water, self.in_use + total)

    def upload(self, host_array: np.ndarray, dtype=None, label: str = "") -> DeviceAllocation:
        """Copy a host array to the device (H2D), optionally converting dtype."""
        dtype = np.dtype(dtype) if dtype is not None else host_array.dtype
        handle = self.alloc(host_array.shape, dtype, label=label)
        handle.array[...] = host_array.astype(dtype, copy=False)
        return handle

    def _release(self, handle: DeviceAllocation) -> None:
        if id(handle) in self._live:
            del self._live[id(handle)]
            self.in_use -= handle.nbytes

    def free_all(self) -> None:
        """Release every live allocation (end-of-tile cleanup)."""
        for handle in list(self._live.values()):
            handle.free()

    @property
    def live_allocations(self) -> Iterator[DeviceAllocation]:
        return iter(self._live.values())

    def report(self) -> dict[str, int]:
        """Footprint summary for documentation/benchmarks."""
        return {
            "capacity": self.capacity,
            "in_use": self.in_use,
            "high_water": self.high_water,
            "n_live": len(self._live),
        }
