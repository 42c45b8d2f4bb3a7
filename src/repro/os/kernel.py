"""The simulated Linux-like kernel.

A single-process kernel exposing the system calls the paper's workloads
need: fd-based I/O on an in-memory filesystem and loopback network,
memory management (``mmap`` + the MPK ``pkey_*`` family), identity and
time.  An optional seccomp-BPF filter — built by LitterBox's MPK backend
— is evaluated on *every* system call, with the caller's PKRU value in
the filter's ``seccomp_data`` (kernel patch [45]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import KernelError, MachineHalt, SyscallFault, WouldBlock
from repro.hw.clock import COSTS, SimClock
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.mpk import PkeyAllocator
from repro.hw.pages import PAGE_SIZE, Perm, page_align_up
from repro.hw.pagetable import PageTable
from repro.hw.physmem import PhysicalMemory
from repro.os import errno
from repro.os import syscalls as sc
from repro.os.fs import FileSystem, OpenFile
from repro.os.net import Connection, Listener, Network
from repro.os.seccomp import (
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL,
    BpfProgram,
    encode_seccomp_data,
)

MMAP_BASE = 0x4000_0000
UID = 1000
PID = 4242

#: ``SYS_FCNTL`` flag switching a socket to non-blocking mode (Linux
#: O_NONBLOCK).  Accept/recv on a non-blocking socket return ``-EAGAIN``
#: instead of parking the goroutine.
O_NONBLOCK = 0x800

#: The ``prot`` bits ``mprotect`` knows: PROT_READ, PROT_WRITE and
#: PROT_EXEC, which are ``Perm``'s R, W and X.
_PROT_BITS = int(Perm.RWX)


@dataclass
class SocketState:
    """Kernel-side socket object behind a file descriptor."""

    kind: str = "unbound"  # unbound | listening | connected
    listener: Listener | None = None
    endpoint = None  # net.Endpoint
    nonblocking: bool = False


class Kernel:
    """The host kernel of the simulation."""

    def __init__(self, physmem: PhysicalMemory, mmu: MMU, clock: SimClock):
        self.physmem = physmem
        self.mmu = mmu
        self.clock = clock
        self.fs = FileSystem()
        self.net = Network()
        self.pkeys = PkeyAllocator()
        self.stdout = bytearray()
        self.seccomp_filter: BpfProgram | None = None
        #: The host page table: ``mmap``, ``munmap`` and ``mprotect``
        #: edit it, trusted code runs on it under every backend, and
        #: ``pkey_mprotect`` retags it (MPK mode).
        self.host_table: PageTable | None = None
        #: Called after mmap maps new frames into the host table, so the
        #: backend can map the range into every other page table that
        #: needs it.  Signature: (base, size, pfns) -> None.
        self.mmap_hook: Callable[[int, int, list[int]], None] | None = None
        #: Called after munmap drops a range from the host table, so the
        #: backend can drop it from every other page table.
        #: Signature: (base, size) -> None.
        self.munmap_hook: Callable[[int, int], None] | None = None
        self._fds: dict[int, object] = {}
        self._next_fd = 3
        self._mmap_cursor = MMAP_BASE
        self._mappings: dict[int, int] = {}  # base -> size
        #: Observer bus (repro.obs), wired by the machine.
        self.obs = None
        #: Optional FaultInjector consulted at every kernel entry.
        self.inject = None
        #: Which goroutine last used each fd (fd -> gid); drives
        #: ``reclaim_goroutine`` when the scheduler kills one.
        self.fd_owner: dict[int, int] = {}
        #: Callable returning the running goroutine's id (machine-wired).
        self.current_gid: Callable[[], int] | None = None
        #: Bytes sent to the peer of a connected socket before it is
        #: reclaimed (e.g. an HTTP 500 so the client is not left hanging).
        self.reclaim_notice: bytes | None = None
        #: Optional per-enclosure quota table plus a callable returning
        #: the environment the current goroutine executes in (both
        #: machine-wired); fd allocation charges the environment's fd
        #: budget, close/reclaim release it.  ``None`` keeps the fd
        #: allocator quota-free and bit-identical.
        self.quota = None
        self.quota_env: Callable[[], object] | None = None
        #: fd -> enclosure name, for quota-charged fds only.
        self._fd_env: dict[int, str] = {}

        self._handlers: dict[int, Callable] = {
            sc.SYS_READ: self._sys_read,
            sc.SYS_WRITE: self._sys_write,
            sc.SYS_CLOSE: self._sys_close,
            sc.SYS_OPEN: self._sys_open,
            sc.SYS_STAT: self._sys_stat,
            sc.SYS_UNLINK: self._sys_unlink,
            sc.SYS_RENAME: self._sys_rename,
            sc.SYS_MKDIR: self._sys_mkdir,
            sc.SYS_MMAP: self._sys_mmap,
            sc.SYS_MUNMAP: self._sys_munmap,
            sc.SYS_MPROTECT: self._sys_mprotect,
            sc.SYS_PKEY_ALLOC: self._sys_pkey_alloc,
            sc.SYS_PKEY_FREE: self._sys_pkey_free,
            sc.SYS_PKEY_MPROTECT: self._sys_pkey_mprotect,
            sc.SYS_SOCKET: self._sys_socket,
            sc.SYS_BIND: self._sys_bind,
            sc.SYS_LISTEN: self._sys_listen,
            sc.SYS_ACCEPT: self._sys_accept,
            sc.SYS_CONNECT: self._sys_connect,
            sc.SYS_SENDTO: self._sys_sendto,
            sc.SYS_RECVFROM: self._sys_recvfrom,
            sc.SYS_SHUTDOWN: self._sys_shutdown,
            sc.SYS_GETUID: self._sys_getuid,
            sc.SYS_GETPID: self._sys_getpid,
            sc.SYS_EXIT: self._sys_exit,
            sc.SYS_EXIT_GROUP: self._sys_exit,
            sc.SYS_CLOCK_GETTIME: self._sys_clock_gettime,
            sc.SYS_NANOSLEEP: self._sys_nanosleep,
            sc.SYS_FUTEX: self._sys_futex,
            sc.SYS_POLL: self._sys_poll,
            sc.SYS_FCNTL: self._sys_fcntl,
        }
        #: Rotating start index for the poll readiness scan (fairness:
        #: a hot listener at slot 0 must not starve connected sockets).
        self._poll_cursor = 0

    # -- entry point -------------------------------------------------------

    def load_seccomp(self, program: BpfProgram) -> None:
        """Install a seccomp filter (irrevocable, as on Linux)."""
        if self.seccomp_filter is not None:
            raise KernelError("seccomp filter already installed")
        self.seccomp_filter = program

    def syscall(self, nr: int, args: tuple[int, ...],
                ctx: TranslationContext | None, pkru: int) -> int:
        """Perform one host system call.

        Charges the user->kernel round trip, evaluates the seccomp
        filter (if installed) against ``(nr, args, pkru)``, then
        dispatches.  Pointer arguments are dereferenced through ``ctx``'s
        page table with kernel privileges (PKRU does not constrain the
        kernel's copy_from_user path).
        """
        obs = self.obs
        if obs is None:
            return self._syscall(nr, args, ctx, pkru)
        obs.on_syscall_begin(nr, pkru)
        ret = None
        try:
            ret = self._syscall(nr, args, ctx, pkru)
            return ret
        finally:
            obs.on_syscall_end(nr, ret)

    def _syscall(self, nr: int, args: tuple[int, ...],
                 ctx: TranslationContext | None, pkru: int) -> int:
        self.clock.charge(COSTS.HOST_SYSCALL)
        self.clock.tick("syscalls")
        if self.inject is not None:
            forced = self.inject.on_syscall(nr)
            if forced is not None:
                if self.obs is not None:
                    self.obs.on_verdict("injector", "inject", nr,
                                        errno=-forced)
                return forced
        if self.seccomp_filter is not None:
            ret, executed = self.seccomp_filter.run(
                encode_seccomp_data(nr, args, pkru))
            self.clock.charge(
                COSTS.SECCOMP_FIXED + COSTS.SECCOMP_BPF_INSN * executed)
            action = ret & 0xFFFF0000
            obs = self.obs
            if action == SECCOMP_RET_KILL:
                if obs is not None:
                    obs.on_verdict("seccomp-bpf", "kill", nr, pkru=pkru,
                                   bpf_insns=executed)
                raise SyscallFault(
                    f"seccomp killed {sc.syscall_name(nr)} "
                    f"(pkru={pkru:#010x})", nr)
            if action == SECCOMP_RET_ERRNO:
                if obs is not None:
                    obs.on_verdict("seccomp-bpf", "errno", nr, pkru=pkru,
                                   errno=ret & 0xFFFF, bpf_insns=executed)
                return -(ret & 0xFFFF)
            if action != SECCOMP_RET_ALLOW:  # pragma: no cover
                raise KernelError(f"unsupported seccomp action {ret:#x}")
            if obs is not None:
                obs.on_verdict("seccomp-bpf", "allow", nr, pkru=pkru,
                               bpf_insns=executed)
        handler = self._handlers.get(nr)
        if handler is None:
            return -errno.ENOSYS
        kctx = self._kernel_ctx(ctx)
        return handler(kctx, args)

    def _kernel_ctx(self, ctx: TranslationContext | None) -> TranslationContext | None:
        """The kernel's copy path uses the user page table sans PKRU
        (and shares that table's cached translations)."""
        if ctx is None:
            return None
        return TranslationContext(page_table=ctx.page_table, pkru=None,
                                  ept=ctx.ept)

    # -- user memory helpers -------------------------------------------------

    def _copy_in(self, ctx: TranslationContext | None, addr: int,
                 size: int) -> bytes:
        if ctx is None:
            raise KernelError("pointer syscall arg without a context")
        return self.mmu.read(ctx, addr, size, charge=False)

    def _copy_out(self, ctx: TranslationContext | None, addr: int,
                  data: bytes) -> None:
        if ctx is None:
            raise KernelError("pointer syscall arg without a context")
        self.mmu.write(ctx, addr, data, charge=False)

    def _alloc_fd(self, obj: object) -> int:
        charged = None
        if self.quota is not None and self.quota_env is not None:
            # Charged before the fd exists, so an overrun allocates
            # nothing (QuotaFault propagates out of the syscall).
            env = self.quota_env()
            if env is not None and self.quota.charge_fd(env):
                charged = env.name
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = obj
        if self.current_gid is not None:
            self.fd_owner[fd] = self.current_gid()
        if charged is not None:
            self._fd_env[fd] = charged
        return fd

    def _release_fd_quota(self, fd: int) -> None:
        if self.quota is not None:
            name = self._fd_env.pop(fd, None)
            if name is not None:
                self.quota.release_fd(name)

    def _touch_fd(self, fd: int) -> None:
        """Transfer fd ownership to the goroutine actually using it.

        A server accepts in one goroutine and hands the connection to a
        handler goroutine; reclaim must follow the handler, not the
        acceptor.
        """
        if self.current_gid is not None and fd in self.fd_owner:
            self.fd_owner[fd] = self.current_gid()

    def reclaim_goroutine(self, gid: int) -> int:
        """Close every fd owned by a killed goroutine (containment step).

        Connected sockets get ``reclaim_notice`` (if set) pushed to the
        peer before closing, so a client mid-request sees an error
        response instead of a silent hang.  Returns the number of fds
        reclaimed; each costs one in-kernel close.
        """
        owned = [fd for fd, owner in self.fd_owner.items() if owner == gid]
        for fd in owned:
            obj = self._fds.pop(fd, None)
            del self.fd_owner[fd]
            self._release_fd_quota(fd)
            if obj is None:
                continue
            if isinstance(obj, SocketState):
                if obj.endpoint is not None:
                    if self.reclaim_notice and obj.kind == "connected":
                        obj.endpoint.send(self.reclaim_notice)
                    obj.endpoint.close()
                if obj.listener is not None:
                    self.net.unbind(obj.listener.port)
            self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return len(owned)

    # -- io ------------------------------------------------------------------

    def _sys_read(self, ctx, args) -> int:
        fd, buf, count = args[0], args[1], args[2]
        self._touch_fd(fd)
        obj = self._fds.get(fd)
        if obj is None:
            return -errno.EBADF
        if isinstance(obj, OpenFile):
            result = FileSystem.read_at(obj, count)
            if isinstance(result, int):
                return result
            self.clock.charge(
                COSTS.SYSCALL_SERVICE_MIN + COSTS.FS_BYTE * len(result))
            self._copy_out(ctx, buf, result)
            return len(result)
        if isinstance(obj, SocketState) and obj.kind == "connected":
            return self._recv_common(ctx, obj, buf, count)
        return -errno.EINVAL

    def _sys_write(self, ctx, args) -> int:
        fd, buf, count = args[0], args[1], args[2]
        if fd in (1, 2):
            data = self._copy_in(ctx, buf, count)
            self.stdout.extend(data)
            self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
            return count
        self._touch_fd(fd)
        obj = self._fds.get(fd)
        if obj is None:
            return -errno.EBADF
        if isinstance(obj, OpenFile):
            data = self._copy_in(ctx, buf, count)
            self.clock.charge(
                COSTS.SYSCALL_SERVICE_MIN + COSTS.FS_BYTE * len(data))
            return FileSystem.write_at(obj, data)
        if isinstance(obj, SocketState) and obj.kind == "connected":
            return self._send_common(ctx, obj, buf, count)
        return -errno.EINVAL

    def _sys_close(self, ctx, args) -> int:
        fd = args[0]
        self.fd_owner.pop(fd, None)
        self._release_fd_quota(fd)
        obj = self._fds.pop(fd, None)
        if obj is None:
            return -errno.EBADF
        if isinstance(obj, SocketState):
            if obj.endpoint is not None:
                obj.endpoint.close()
            if obj.listener is not None:
                self.net.unbind(obj.listener.port)
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return 0

    # -- filesystem ------------------------------------------------------------

    def _read_path(self, ctx, ptr: int, length: int) -> str:
        raw = self._copy_in(ctx, ptr, length)
        return raw.decode("utf-8", "replace")

    def _sys_open(self, ctx, args) -> int:
        path = self._read_path(ctx, args[0], args[1])
        flags = args[2]
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        result = self.fs.open(path, flags)
        if isinstance(result, int):
            return result
        return self._alloc_fd(result)

    def _sys_stat(self, ctx, args) -> int:
        path = self._read_path(ctx, args[0], args[1])
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return self.fs.stat_size(path)

    def _sys_unlink(self, ctx, args) -> int:
        path = self._read_path(ctx, args[0], args[1])
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return self.fs.unlink(path)

    def _sys_rename(self, ctx, args) -> int:
        old = self._read_path(ctx, args[0], args[1])
        new = self._read_path(ctx, args[2], args[3])
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return self.fs.rename(old, new)

    def _sys_mkdir(self, ctx, args) -> int:
        path = self._read_path(ctx, args[0], args[1])
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return self.fs.mkdir(path)

    # -- memory ------------------------------------------------------------------

    def _sys_mmap(self, ctx, args) -> int:
        length = args[1]
        if length <= 0:
            return -errno.EINVAL
        if self.host_table is None:
            raise KernelError("mmap with no page table registered")
        size = page_align_up(length)
        pages = size // PAGE_SIZE
        if pages > self.physmem.frames_left():
            return -errno.ENOMEM
        base = self._mmap_cursor
        self._mmap_cursor += size + PAGE_SIZE  # guard page gap
        pfns = [self.physmem.alloc_frame() for _ in range(pages)]
        self.clock.charge(COSTS.MMAP_PER_PAGE * pages)
        self._mappings[base] = size
        self.host_table.map_range(base, size, pfns, Perm.RW)
        if self.mmap_hook is not None:
            self.mmap_hook(base, size, pfns)
        return base

    def _sys_munmap(self, ctx, args) -> int:
        base, length = args[0], args[1]
        size = self._mappings.get(base)
        if size is None or size != page_align_up(length):
            return -errno.EINVAL
        del self._mappings[base]
        self.host_table.unmap_range(base, size)
        if self.munmap_hook is not None:
            self.munmap_hook(base, size)
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return 0

    def _sys_mprotect(self, ctx, args) -> int:
        base, length, prot = args[0], args[1], args[2]
        if self.host_table is None or prot & ~_PROT_BITS:
            return -errno.EINVAL
        size = page_align_up(length)
        if not self.host_table.maps(base, size):
            return -errno.ENOMEM
        updated = self.host_table.protect_range(base, size, Perm(prot))
        self.clock.charge(COSTS.PTE_UPDATE * updated)
        return 0

    def _sys_pkey_alloc(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        try:
            return self.pkeys.alloc()
        except Exception:
            return -errno.ENOMEM

    def _sys_pkey_free(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        try:
            self.pkeys.free(args[0])
        except Exception:
            return -errno.EINVAL
        return 0

    def _sys_pkey_mprotect(self, ctx, args) -> int:
        base, length, prot, key = args[0], args[1], args[2], args[3]
        if self.host_table is None or prot & ~_PROT_BITS:
            return -errno.EINVAL
        if not self.pkeys.is_allocated(key):
            return -errno.EINVAL
        size = page_align_up(length)
        if not self.host_table.maps(base, size):
            return -errno.ENOMEM
        self.host_table.protect_range(base, size, Perm(prot))
        updated = self.host_table.set_pkey_range(base, size, key)
        self.clock.charge(COSTS.PKEY_SET_PAGE * updated)
        return 0

    # -- network ------------------------------------------------------------------

    def _sys_socket(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return self._alloc_fd(SocketState())

    def _sock(self, fd: int) -> SocketState | int:
        obj = self._fds.get(fd)
        if obj is None:
            return -errno.EBADF
        if not isinstance(obj, SocketState):
            return -errno.ENOTSOCK
        return obj

    def _sys_bind(self, ctx, args) -> int:
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        port = args[1]
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        result = self.net.bind_listen(port, backlog=128)
        if isinstance(result, int):
            return result
        sock.kind = "listening"
        sock.listener = result
        return 0

    def _sys_listen(self, ctx, args) -> int:
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        if sock.kind != "listening":
            return -errno.EINVAL
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        sock.listener.backlog = max(1, args[1])
        # Shrinking below the current queue depth sheds (resets) the
        # newest pending connections rather than silently exceeding the
        # new bound.
        self.net.shed_excess(sock.listener)
        return 0

    def _sys_accept(self, ctx, args) -> int:
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        if sock.kind != "listening" or sock.listener is None:
            return -errno.EINVAL
        conn = self.net.accept(sock.listener)
        if conn is None:
            if sock.nonblocking:
                self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
                return -errno.EAGAIN
            raise WouldBlock(sock.listener.wait_key)
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        new = SocketState(kind="connected")
        new.endpoint = conn.server
        return self._alloc_fd(new)

    def _sys_connect(self, ctx, args) -> int:
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        ip, port = args[1], args[2]
        self.clock.charge(COSTS.NET_SETUP)
        result = self.net.connect(ip, port)
        if isinstance(result, int):
            return result
        sock.kind = "connected"
        sock.endpoint = result.client
        return 0

    def _send_common(self, ctx, sock: SocketState, buf: int, count: int) -> int:
        data = self._copy_in(ctx, buf, count)
        self.clock.charge(
            COSTS.SYSCALL_SERVICE_MIN + COSTS.NET_BYTE * len(data))
        return sock.endpoint.send(data)

    def _recv_common(self, ctx, sock: SocketState, buf: int, count: int) -> int:
        result = sock.endpoint.recv(count)
        if result is None:
            if sock.nonblocking:
                self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
                return -errno.EAGAIN
            raise WouldBlock(sock.endpoint.wait_key)
        if isinstance(result, int):  # recv on a locally-closed endpoint
            self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
            return result
        self.clock.charge(
            COSTS.SYSCALL_SERVICE_MIN + COSTS.NET_BYTE * len(result))
        if result:
            self._copy_out(ctx, buf, result)
            if self.obs is not None:
                self.obs.on_sock_read(sock.endpoint)
        return len(result)

    def _sys_sendto(self, ctx, args) -> int:
        self._touch_fd(args[0])
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        if sock.kind != "connected":
            return -errno.EINVAL
        return self._send_common(ctx, sock, args[1], args[2])

    def _sys_recvfrom(self, ctx, args) -> int:
        self._touch_fd(args[0])
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        if sock.kind != "connected":
            return -errno.EINVAL
        return self._recv_common(ctx, sock, args[1], args[2])

    def _sys_shutdown(self, ctx, args) -> int:
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        if sock.endpoint is not None:
            sock.endpoint.close()
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return 0

    def _sys_fcntl(self, ctx, args) -> int:
        """``fcntl(fd, flags)``: only the O_NONBLOCK bit is modeled."""
        sock = self._sock(args[0])
        if isinstance(sock, int):
            return sock
        sock.nonblocking = bool(args[1] & O_NONBLOCK)
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return 0

    def _fd_ready(self, fd: int) -> bool:
        """Poll readiness: would an operation on ``fd`` complete now?

        Listening sockets are ready when the accept queue is non-empty;
        connected sockets when bytes are buffered or either side closed
        (the next op errors/EOFs rather than blocking).  Anything else —
        files, bad fds — reports ready, because the corresponding
        operation never parks.
        """
        obj = self._fds.get(fd)
        if isinstance(obj, SocketState):
            if obj.kind == "listening" and obj.listener is not None:
                return bool(obj.listener.pending)
            if obj.endpoint is not None:
                ep = obj.endpoint
                return bool(ep.rx) or ep.closed or ep.peer.closed
        return True

    def _sys_poll(self, ctx, args) -> int:
        """``poll(fds_ptr, nfds)``: epoll-style readiness over an fd set.

        The user passes a packed array of ``nfds`` little-endian 8-byte
        fds; the return value is the *index* of one ready fd.  The scan
        starts where the previous poll left off so a busy listener at
        slot 0 cannot starve connected sockets.  With nothing ready the
        goroutine parks on a per-goroutine key registered with every
        watched socket; whichever becomes ready first wakes it, and the
        retried syscall finds the ready index.  Cost is charged per fd
        scanned — multiplexing thousands of connections is paid for.
        """
        fds_ptr, nfds = args[0], args[1]
        if nfds <= 0:
            return -errno.EINVAL
        raw = self._copy_in(ctx, fds_ptr, nfds * 8)
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN + COSTS.POLL_FD * nfds)
        fds = [int.from_bytes(raw[i * 8:i * 8 + 8], "little")
               for i in range(nfds)]
        start = self._poll_cursor % nfds
        for off in range(nfds):
            idx = (start + off) % nfds
            if self._fd_ready(fds[idx]):
                self._poll_cursor = idx + 1
                return idx
        gid = self.current_gid() if self.current_gid is not None else 0
        key = ("poll", gid)
        for fd in fds:
            obj = self._fds.get(fd)
            if isinstance(obj, SocketState):
                if obj.listener is not None:
                    obj.listener.watchers.add(key)
                elif obj.endpoint is not None:
                    obj.endpoint.watchers.add(key)
        raise WouldBlock(key)

    # -- identity / time / sync -----------------------------------------------

    def _sys_getuid(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return UID

    def _sys_getpid(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return PID

    def _sys_exit(self, ctx, args) -> int:
        raise MachineHalt(args[0] if args else 0)

    def _sys_clock_gettime(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN)
        return int(self.clock.now_ns)

    def _sys_nanosleep(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN + args[0])
        return 0

    def _sys_futex(self, ctx, args) -> int:
        self.clock.charge(COSTS.SYSCALL_SERVICE_MIN * 2)
        return 0
