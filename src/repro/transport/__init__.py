"""Fair-lossy transport (Section 3.1): network medium and node endpoints."""

from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage
from repro.transport.network import Network, NetworkConfig, NetworkMetrics

__all__ = [
    "Endpoint",
    "Network",
    "NetworkConfig",
    "NetworkMetrics",
    "WireMessage",
]
