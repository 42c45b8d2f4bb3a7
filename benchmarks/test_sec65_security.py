"""§6.5: the security study against recreated malicious packages.

Regenerates the section's qualitative results as a matrix: every
recreated attack (SSH/GPG key theft, backdoor, malicious framework
clone) succeeds unprotected and is stopped by a basic enclosure; the
ssh-decorator hard case defeats the naive policy but falls to both of
the paper's mitigations (pre-allocated socket; per-IP connect filter),
which keep the *clean* package fully functional.
"""

from __future__ import annotations

import pytest

from repro.attacks.harness import security_study

from benchmarks.conftest import add_table

BACKENDS = ("mpk", "vtx", "lwc")

_ROWS: dict[str, list[str]] = {}


@pytest.mark.parametrize("backend", BACKENDS)
def test_security_study(benchmark, backend):
    reports = benchmark.pedantic(lambda: security_study(backend),
                                 rounds=1, iterations=1)

    header = (f"{'attack':<14} {'protection':<12} {'functional':<11} "
              f"{'secret':<7} blocked-by")
    _ROWS[backend] = [header] + [r.row() for r in reports]
    for b in BACKENDS:
        if b in _ROWS:
            add_table(f"Section 6.5: security study ({b.upper()})", _ROWS[b])

    by = {(r.name, r.protection): r for r in reports}

    # Unprotected: every attack lands.
    for name in ("ssh-key-theft", "backdoor", "django-clone",
                 "ssh-decorator"):
        assert by[(name, "unprotected")].exfiltrated

    # Basic enclosures stop the simple attacks while the program's
    # sensitive state stays intact.
    assert by[("ssh-key-theft", "enclosure")].blocked_by == "syscall"
    assert by[("backdoor", "enclosure")].blocked_by == "syscall"
    assert by[("django-clone", "enclosure")].blocked_by == "memory"
    for name in ("ssh-key-theft", "backdoor", "django-clone"):
        assert not by[(name, "enclosure")].exfiltrated

    # The hard case: naive policies don't cut it...
    assert by[("ssh-decorator", "naive")].exfiltrated
    # ...but both §6.5 mitigations stop the infected package...
    infected = [r for r in reports if r.name == "ssh-decorator"
                and r.protection in ("presocket", "ipfilter")
                and not r.functional]
    assert len(infected) == 2
    assert all(not r.exfiltrated for r in infected)
    # ...while the clean package still works under the same policies.
    clean = [r for r in reports if r.name == "ssh-decorator"
             and r.protection in ("presocket", "ipfilter")
             and r.functional]
    assert len(clean) == 2
    assert all(not r.exfiltrated for r in clean)

    benchmark.extra_info["attacks_blocked"] = sum(
        1 for r in reports
        if r.protection != "unprotected" and not r.exfiltrated)
