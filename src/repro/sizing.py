"""The old name of :func:`repro.transport.message.frame_size`."""

from repro.transport.message import frame_size as estimate_size

__all__ = ["estimate_size"]
