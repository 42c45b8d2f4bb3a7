"""Unit tests for the simulated kernel's syscall surface."""

import pytest

from repro.errors import MachineHalt, SyscallFault, WouldBlock
from repro.hw import (
    MMU,
    PAGE_SIZE,
    PageTable,
    Perm,
    PhysicalMemory,
    SimClock,
    TranslationContext,
)
from repro.hw.mpk import PKRU_ALLOW_ALL, make_pkru
from repro.os import O_CREAT, O_RDONLY, O_WRONLY, errno, ip_of
from repro.os import syscalls as sc
from repro.os.kernel import MMAP_BASE, Kernel
from repro.os.seccomp import ArgRule, build_pkru_filter

from tests.golite_helpers import run_golite

T = PKRU_ALLOW_ALL  # trusted PKRU


@pytest.fixture
def world():
    return make_world(PhysicalMemory())


def make_world(physmem):
    clock = SimClock()
    mmu = MMU(physmem, clock)
    kernel = Kernel(physmem, mmu, clock)
    table = PageTable("host")
    kernel.host_table = table
    # One scratch RW page at 0x10000 for user buffers.
    table.map_range(0x10000, PAGE_SIZE, [physmem.alloc_frame()], Perm.RW)
    ctx = TranslationContext(page_table=table)
    return kernel, mmu, ctx


def put(mmu, ctx, addr, data: bytes):
    mmu.write(ctx, addr, data, charge=False)


def syscall(kernel, ctx, nr, *args, pkru=T):
    return kernel.syscall(nr, tuple(args), ctx, pkru)


class TestFileSyscalls:
    def test_open_read_close(self, world):
        kernel, mmu, ctx = world
        kernel.fs.add_file("/etc/secret", b"hunter2")
        put(mmu, ctx, 0x10000, b"/etc/secret")
        fd = syscall(kernel, ctx, sc.SYS_OPEN, 0x10000, 11, O_RDONLY)
        assert fd >= 3
        n = syscall(kernel, ctx, sc.SYS_READ, fd, 0x10100, 64)
        assert n == 7
        assert mmu.read(ctx, 0x10100, 7, charge=False) == b"hunter2"
        assert syscall(kernel, ctx, sc.SYS_CLOSE, fd) == 0
        assert syscall(kernel, ctx, sc.SYS_CLOSE, fd) == -errno.EBADF

    def test_write_creates_file(self, world):
        kernel, mmu, ctx = world
        put(mmu, ctx, 0x10000, b"/out")
        fd = syscall(kernel, ctx, sc.SYS_OPEN, 0x10000, 4, O_WRONLY | O_CREAT)
        put(mmu, ctx, 0x10200, b"payload")
        assert syscall(kernel, ctx, sc.SYS_WRITE, fd, 0x10200, 7) == 7
        assert kernel.fs.read_file("/out") == b"payload"

    def test_stdout_capture(self, world):
        kernel, mmu, ctx = world
        put(mmu, ctx, 0x10000, b"hello\n")
        assert syscall(kernel, ctx, sc.SYS_WRITE, 1, 0x10000, 6) == 6
        assert bytes(kernel.stdout) == b"hello\n"

    def test_bad_fd(self, world):
        kernel, _, ctx = world
        assert syscall(kernel, ctx, sc.SYS_READ, 99, 0x10000, 4) == -errno.EBADF

    def test_unimplemented_syscall(self, world):
        kernel, _, ctx = world
        assert syscall(kernel, ctx, sc.SYS_GETDENTS, 0) == -errno.ENOSYS


class TestMemorySyscalls:
    def test_mmap_maps_rw_pages(self, world):
        kernel, mmu, ctx = world
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, 3 * PAGE_SIZE, 3, 0)
        assert base >= MMAP_BASE
        mmu.write(ctx, base + 100, b"heap", charge=False)
        assert mmu.read(ctx, base + 100, 4, charge=False) == b"heap"

    def test_munmap(self, world):
        kernel, mmu, ctx = world
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, PAGE_SIZE, 3, 0)
        assert syscall(kernel, ctx, sc.SYS_MUNMAP, base, PAGE_SIZE) == 0
        from repro.errors import PageFault
        with pytest.raises(PageFault):
            mmu.read(ctx, base, 1, charge=False)
        assert syscall(kernel, ctx, sc.SYS_MUNMAP, base, PAGE_SIZE) == \
            -errno.EINVAL

    def test_pkey_lifecycle(self, world):
        kernel, mmu, ctx = world
        key = syscall(kernel, ctx, sc.SYS_PKEY_ALLOC)
        assert 1 <= key < 16
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, PAGE_SIZE, 3, 0)
        assert syscall(kernel, ctx, sc.SYS_PKEY_MPROTECT, base, PAGE_SIZE,
                       int(Perm.RW), key) == 0
        assert kernel.host_table.lookup(base >> 12).pkey == key
        assert syscall(kernel, ctx, sc.SYS_PKEY_FREE, key) == 0

    def test_pkey_mprotect_unallocated_key(self, world):
        kernel, _, ctx = world
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, PAGE_SIZE, 3, 0)
        assert syscall(kernel, ctx, sc.SYS_PKEY_MPROTECT, base, PAGE_SIZE,
                       3, 7) == -errno.EINVAL

    def test_mmap_zero_length(self, world):
        kernel, _, ctx = world
        assert syscall(kernel, ctx, sc.SYS_MMAP, 0, 0, 3, 0) == -errno.EINVAL

    def test_mmap_past_the_frames_left_is_enomem(self):
        """An mmap that cannot get every frame takes none and leaves the
        cursor where it was, so a request that fits still succeeds."""
        physmem = PhysicalMemory(max_frames=8)   # 7 frames, 1 in use
        kernel, mmu, ctx = make_world(physmem)
        assert syscall(kernel, ctx, sc.SYS_MMAP, 0, 16 * PAGE_SIZE, 3,
                       0) == -errno.ENOMEM
        assert physmem.frames_left() == 6
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, 6 * PAGE_SIZE, 3, 0)
        assert base == MMAP_BASE
        mmu.write(ctx, base + 5 * PAGE_SIZE, b"last", charge=False)
        assert syscall(kernel, ctx, sc.SYS_MMAP, 0, PAGE_SIZE, 3,
                       0) == -errno.ENOMEM

    def test_munmap_of_the_wrong_length_keeps_the_mapping(self, world):
        kernel, mmu, ctx = world
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, 2 * PAGE_SIZE, 3, 0)
        assert syscall(kernel, ctx, sc.SYS_MUNMAP, base, PAGE_SIZE) == \
            -errno.EINVAL
        mmu.write(ctx, base + PAGE_SIZE, b"kept", charge=False)
        assert syscall(kernel, ctx, sc.SYS_MUNMAP, base, 2 * PAGE_SIZE) == 0

    @pytest.mark.parametrize("call", ["mprotect", "pkey_mprotect"])
    def test_protect_over_an_unmapped_page_edits_nothing(self, world, call):
        """A range running past its mapping is ENOMEM, and the mapped
        page before the gap keeps its rights and key."""
        kernel, mmu, ctx = world
        key = syscall(kernel, ctx, sc.SYS_PKEY_ALLOC)
        base = syscall(kernel, ctx, sc.SYS_MMAP, 0, PAGE_SIZE, 3, 0)
        mmu.write(ctx, base, b"hot", charge=False)
        nr, extra = {"mprotect": (sc.SYS_MPROTECT, ()),
                     "pkey_mprotect": (sc.SYS_PKEY_MPROTECT, (key,))}[call]
        assert syscall(kernel, ctx, nr, base, 2 * PAGE_SIZE, int(Perm.R),
                       *extra) == -errno.ENOMEM
        pte = kernel.host_table.lookup(base >> 12)
        assert (pte.perms, pte.pkey) == (Perm.RW, 0)
        mmu.write(ctx, base, b"still", charge=False)


#: mmaps one page and mprotects two (the second is the unmapped guard
#: page after it), then pkey_mprotects the same range.
PROTECT_PAST_THE_MAPPING = """
package main

func main() {
    p := syscall(9, 0, 4096, 3, 0)
    println(syscall(10, p, 8192, 1))
    println(syscall(329, p, 8192, 1, syscall(330, 0, 0)))
}
"""


@pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx", "lwc"])
def test_guest_protect_past_its_mapping_is_enomem(backend):
    machine, result = run_golite(PROTECT_PAST_THE_MAPPING, backend=backend)
    assert result.status == "exited", machine.fault
    assert machine.stdout == b"-12\n-12\n"


#: mprotects and pkey_mprotects a page with prot bits beyond
#: PROT_READ|PROT_WRITE|PROT_EXEC (-1 sets them all, 0x10 one), then
#: stores to it.
PROTECT_WITH_UNKNOWN_BITS = """
package main

func main() {
    p := syscall(9, 0, 4096, 3, 0)
    key := syscall(330, 0, 0)
    println(syscall(10, p, 4096, -1))
    println(syscall(10, p, 4096, 16))
    println(syscall(329, p, 4096, -1, key))
    println(syscall(329, p, 4096, 16, key))
    poke(p, 7)
    println(peek(p))
}
"""


@pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx", "lwc"])
def test_guest_protect_with_unknown_prot_bits_is_einval(backend):
    machine, result = run_golite(PROTECT_WITH_UNKNOWN_BITS, backend=backend)
    assert result.status == "exited", machine.fault
    assert machine.stdout == b"-22\n-22\n-22\n-22\n7\n"


#: Trusted programs that take their own page away, then touch it: each
#: prints the syscall's 0 and faults on the page, which lies past the
#: main goroutine's 16-page stack and its guard page.
TAKE_THE_PAGE_AWAY = {
    "mprotect-then-store": ("""
package main

func main() {
    p := syscall(9, 0, 4096, 3, 0)
    poke(p, 1)
    println(syscall(10, p, 4096, 1))
    poke(p, 2)
    println(peek(p))
}
""", "w"),
    "munmap-then-load": ("""
package main

func main() {
    p := syscall(9, 0, 4096, 3, 0)
    poke(p, 1)
    println(syscall(11, p, 4096))
    println(peek(p))
}
""", "non-present"),
}


@pytest.mark.parametrize("program", sorted(TAKE_THE_PAGE_AWAY))
def test_trusted_memory_syscalls_agree_on_every_backend(program):
    """Trusted code runs on the host table these calls edit under every
    backend, so all four stop at the same fault."""
    source, kind = TAKE_THE_PAGE_AWAY[program]
    outcomes = {}
    for backend in ("baseline", "mpk", "vtx", "lwc"):
        machine, result = run_golite(source, backend=backend)
        outcomes[backend] = (result.status, machine.stdout,
                             machine.fault and machine.fault.kind,
                             machine.fault and machine.fault.addr)
    assert set(outcomes.values()) == {
        ("faulted", b"0\n", kind, 0x40011000)}, outcomes


class TestNetworkSyscalls:
    def test_socket_bind_listen_accept_blocks(self, world):
        kernel, _, ctx = world
        fd = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0)
        assert syscall(kernel, ctx, sc.SYS_BIND, fd, 8080) == 0
        assert syscall(kernel, ctx, sc.SYS_LISTEN, fd, 16) == 0
        with pytest.raises(WouldBlock):
            syscall(kernel, ctx, sc.SYS_ACCEPT, fd)

    def test_end_to_end_loopback(self, world):
        kernel, mmu, ctx = world
        # Server side.
        server = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0)
        syscall(kernel, ctx, sc.SYS_BIND, server, 9000)
        syscall(kernel, ctx, sc.SYS_LISTEN, server, 4)
        # Client side.
        client = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0)
        assert syscall(kernel, ctx, sc.SYS_CONNECT, client,
                       ip_of("127.0.0.1"), 9000) == 0
        conn = syscall(kernel, ctx, sc.SYS_ACCEPT, server)
        assert conn >= 3
        put(mmu, ctx, 0x10000, b"GET /")
        assert syscall(kernel, ctx, sc.SYS_SENDTO, client, 0x10000, 5) == 5
        n = syscall(kernel, ctx, sc.SYS_RECVFROM, conn, 0x10300, 64)
        assert n == 5
        assert mmu.read(ctx, 0x10300, 5, charge=False) == b"GET /"

    def test_connect_refused(self, world):
        kernel, _, ctx = world
        fd = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0)
        assert syscall(kernel, ctx, sc.SYS_CONNECT, fd,
                       ip_of("127.0.0.1"), 1) == -errno.ECONNREFUSED

    def test_recv_blocks_when_empty(self, world):
        kernel, _, ctx = world
        server = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0)
        syscall(kernel, ctx, sc.SYS_BIND, server, 9000)
        syscall(kernel, ctx, sc.SYS_LISTEN, server, 4)
        client = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0)
        syscall(kernel, ctx, sc.SYS_CONNECT, client, ip_of("127.0.0.1"), 9000)
        conn = syscall(kernel, ctx, sc.SYS_ACCEPT, server)
        with pytest.raises(WouldBlock):
            syscall(kernel, ctx, sc.SYS_RECVFROM, conn, 0x10000, 16)


class TestIdentityAndExit:
    def test_getuid_getpid(self, world):
        kernel, _, ctx = world
        assert syscall(kernel, ctx, sc.SYS_GETUID) == 1000
        assert syscall(kernel, ctx, sc.SYS_GETPID) == 4242

    def test_exit_halts(self, world):
        kernel, _, ctx = world
        with pytest.raises(MachineHalt) as ei:
            syscall(kernel, ctx, sc.SYS_EXIT, 7)
        assert ei.value.exit_code == 7

    def test_clock_gettime_monotonic(self, world):
        kernel, _, ctx = world
        t1 = syscall(kernel, ctx, sc.SYS_CLOCK_GETTIME)
        t2 = syscall(kernel, ctx, sc.SYS_CLOCK_GETTIME)
        assert t2 > t1


class TestSeccompIntegration:
    def test_filter_kills_denied_syscall(self, world):
        kernel, _, ctx = world
        enc_pkru = make_pkru({0: "rw", 2: "rw"})
        kernel.load_seccomp(build_pkru_filter({
            T: frozenset(sc.ALL_SYSCALLS),
            enc_pkru: frozenset(sc.syscalls_for_categories({"net"})),
        }))
        # Trusted PKRU: anything goes.
        assert syscall(kernel, ctx, sc.SYS_GETUID, pkru=T) == 1000
        # Enclosure PKRU: net is fine, proc is killed.
        fd = syscall(kernel, ctx, sc.SYS_SOCKET, 2, 1, 0, pkru=enc_pkru)
        assert fd >= 3
        with pytest.raises(SyscallFault):
            syscall(kernel, ctx, sc.SYS_GETUID, pkru=enc_pkru)
        # A denial is re-evaluated, and re-denied, on retry.
        with pytest.raises(SyscallFault):
            syscall(kernel, ctx, sc.SYS_GETUID, pkru=enc_pkru)

    def test_arg_rule_sees_each_calls_arguments(self, world):
        """An argument-granular rule (§6.5) is decided per call: an
        allowed (nr, pkru) pair does not let a later call through with
        an argument the rule rejects."""
        kernel, _, ctx = world
        kernel.load_seccomp(build_pkru_filter(
            {T: frozenset(sc.ALL_SYSCALLS)},
            [ArgRule(sc.SYS_CONNECT, 1, (5,))]))
        for _ in range(2):
            assert syscall(kernel, ctx, sc.SYS_CONNECT, 99, 5, 80) \
                == -errno.EBADF
        with pytest.raises(SyscallFault):
            syscall(kernel, ctx, sc.SYS_CONNECT, 99, 6, 80)

    def test_filter_charges_time(self, world):
        kernel, _, ctx = world
        kernel.load_seccomp(build_pkru_filter({
            T: frozenset(sc.ALL_SYSCALLS),
        }))
        before = kernel.clock.now_ns
        syscall(kernel, ctx, sc.SYS_GETUID)
        with_filter = kernel.clock.now_ns - before
        assert with_filter > 400  # base syscall + seccomp machinery

    def test_double_load_rejected(self, world):
        kernel, _, ctx = world
        prog = build_pkru_filter({T: frozenset(sc.ALL_SYSCALLS)})
        kernel.load_seccomp(prog)
        from repro.errors import KernelError
        with pytest.raises(KernelError):
            kernel.load_seccomp(prog)
