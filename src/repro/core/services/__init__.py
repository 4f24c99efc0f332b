"""Runtime service layer: message-dispatched protocol subsystems.

The master and node runtimes are thin composition roots over these
services; see :mod:`repro.core.services.base` for the :class:`Service`
protocol and the :class:`Dispatcher` that routes frames by message kind.
"""

from repro.core.services.base import Dispatcher, Service
from repro.core.services.coherence import CoherenceService, CoherentGuestMemory
from repro.core.services.forwarding import ForwardingService
from repro.core.services.futexes import FutexService
from repro.core.services.nodeside import (
    NodeCoherenceService,
    NodeControlService,
    NodeSplitTableService,
)
from repro.core.services.splitting import SplittingService
from repro.core.services.syscalls import SyscallService

__all__ = [
    "CoherenceService",
    "CoherentGuestMemory",
    "Dispatcher",
    "ForwardingService",
    "FutexService",
    "NodeCoherenceService",
    "NodeControlService",
    "NodeSplitTableService",
    "Service",
    "SplittingService",
    "SyscallService",
]
