"""Simulated OS: kernel, filesystem, network, seccomp-BPF."""

from repro.os import errno, syscalls
from repro.os.fs import (
    FileSystem,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)
from repro.os.kernel import Kernel, O_NONBLOCK, SocketState
from repro.os.net import (
    LOCALHOST,
    CollectorService,
    Connection,
    Endpoint,
    Listener,
    Network,
    ip_of,
    ip_str,
)
from repro.os.seccomp import ArgRule, BpfInsn, BpfProgram, build_pkru_filter

__all__ = [
    "errno", "syscalls",
    "FileSystem", "O_APPEND", "O_CREAT", "O_RDONLY", "O_RDWR", "O_TRUNC",
    "O_WRONLY",
    "Kernel", "O_NONBLOCK", "SocketState",
    "CollectorService", "Connection", "Endpoint", "Listener", "Network",
    "LOCALHOST", "ip_of", "ip_str",
    "ArgRule", "BpfInsn", "BpfProgram", "build_pkru_filter",
]
