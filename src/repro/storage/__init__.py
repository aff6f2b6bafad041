"""Stable storage: the paper's ``log`` / ``retrieve`` primitives.

One engine, :class:`~repro.storage.stable.StableStorage`, keeps the
logged objects in a map and journals them to a disk when it has one
(:mod:`repro.storage.disk`): :class:`~repro.storage.disk.OsDisk` on the
live runtime, :class:`~repro.storage.disk.SimDisk` — bytes in memory,
seeded faults — on the simulator.  :mod:`repro.storage.codec` is the
one binary encoding of the wire and of the disk.
"""

from repro.storage.disk import InjectedCrashFault, OsDisk, SimDisk
from repro.storage.stable import StableStorage, StorageMetrics

__all__ = ["InjectedCrashFault", "OsDisk", "SimDisk", "StableStorage",
           "StorageMetrics"]
