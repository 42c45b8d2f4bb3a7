"""Tests for the §6.5 security study."""

import pytest

from repro.attacks.harness import (
    run_backdoor,
    run_django_clone,
    run_key_stealer,
    run_ssh_decorator,
    security_study,
)

ENFORCING = ["mpk", "vtx", "lwc"]


class TestKeyStealer:
    def test_unprotected_leaks_and_works(self):
        report = run_key_stealer("baseline", enclosed=False)
        assert report.functional
        assert report.exfiltrated

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_enclosure_blocks(self, backend):
        report = run_key_stealer(backend, enclosed=True)
        assert not report.exfiltrated
        assert report.blocked_by == "syscall"


class TestBackdoor:
    def test_unprotected_opens_listener(self):
        report = run_backdoor("baseline", enclosed=False)
        assert report.functional
        assert report.exfiltrated  # backdoor port reachable

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_enclosure_blocks(self, backend):
        report = run_backdoor(backend, enclosed=True)
        assert not report.exfiltrated
        assert report.blocked_by == "syscall"


class TestDjangoClone:
    def test_unprotected_scrapes_memory(self):
        report = run_django_clone("baseline", enclosed=False)
        assert report.functional
        assert report.exfiltrated

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_memory_view_blocks_scraping(self, backend):
        report = run_django_clone(backend, enclosed=True)
        assert not report.exfiltrated
        assert report.blocked_by == "memory"


class TestSshDecorator:
    """The hard case: valid functionality needs the secret + syscalls."""

    def test_unprotected_works_but_leaks(self):
        report = run_ssh_decorator("baseline", "unprotected")
        assert report.functional
        assert report.exfiltrated

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_naive_enclosure_insufficient(self, backend):
        """With creds shared and net allowed, the theft fits inside the
        policy — exactly the challenge the paper describes."""
        report = run_ssh_decorator(backend, "naive")
        assert report.functional
        assert report.exfiltrated

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_presocket_mitigation_blocks_infected(self, backend):
        report = run_ssh_decorator(backend, "presocket")
        assert not report.exfiltrated
        assert report.blocked_by == "syscall"

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_presocket_mitigation_keeps_clean_package_working(self, backend):
        report = run_ssh_decorator(backend, "presocket", infected=False)
        assert report.functional
        assert not report.exfiltrated

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_ipfilter_mitigation_blocks_infected(self, backend):
        report = run_ssh_decorator(backend, "ipfilter")
        assert not report.exfiltrated
        assert report.blocked_by == "syscall"

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_ipfilter_mitigation_keeps_clean_package_working(self, backend):
        report = run_ssh_decorator(backend, "ipfilter", infected=False)
        assert report.functional
        assert not report.exfiltrated


class TestStudyMatrix:
    def test_full_matrix_consistency(self):
        reports = security_study("mpk")
        by_key = {(r.name, r.protection, r.functional): r for r in reports}
        # Every unprotected attack leaks; every protected one is safe.
        for report in reports:
            if report.protection == "unprotected":
                assert report.exfiltrated or report.name == "django-clone"
            elif report.protection != "naive":
                assert not report.exfiltrated
        assert len(reports) == 12


class TestStudyUnderQuarantine:
    """Satellite: the §6.5 matrix holds under fault containment — every
    attack is still blocked AND the machine survives each one."""

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_attacks_blocked_and_machine_survives(self, backend):
        reports = security_study(backend, fault_policy="quarantine")
        assert len(reports) == 12
        for report in reports:
            # Containment never weakens enforcement.
            if report.protection == "unprotected":
                assert report.exfiltrated or report.name == "django-clone"
            elif report.protection != "naive":
                assert not report.exfiltrated, report.row()
            # And it never kills the machine: the faults that aborted
            # under the default policy are contained here.
            assert report.survived, report.row()

    def test_blocked_attacks_die_under_abort_policy(self):
        """Contrast case: under the paper's abort policy the blocked
        attacks take the whole program down (survived=False)."""
        abort = security_study("mpk", fault_policy="abort")
        blocked = [r for r in abort if r.blocked_by is not None]
        assert blocked
        assert all(not r.survived for r in blocked)
        clean = [r for r in abort if r.blocked_by is None]
        assert all(r.survived for r in clean)
