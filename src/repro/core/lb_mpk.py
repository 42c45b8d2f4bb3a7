"""LBMPK: the Intel MPK backend (paper §5.3).

* allocates one protection key per meta-package (clustered views);
* tags every package section's pages with its meta-package's key;
* encodes each environment as a PKRU value; a switch is a PKRU write;
* scans the program's text to ensure only LitterBox modifies PKRU
  (ERIM-style binary inspection);
* compiles all SysFilters into one seccomp-BPF program that indexes the
  permitted-syscall mask by the PKRU value (kernel patch [45]);
* implements Transfer as a ``pkey_mprotect`` system call.

Faithful MPK limitation (also true of ERIM/Hodor): PKRU governs *data*
accesses only — instruction fetches are not key-checked, so LBMPK
cannot fault a bare jump into a hidden package's text; every data
access that code makes is still denied.  LBVTX does fault the fetch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import Backend
from repro.core.enclosure import LITTERBOX_USER, Environment
from repro.errors import ConfigError, Fault
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.mpk import (
    NUM_KEYS,
    PKRU_ALLOW_ALL,
    PKRU_DENY_ALL_BUT_0,
    make_pkru,
)
from repro.hw.pages import Perm, Section
from repro.isa.opcodes import PKRU_WRITING_OPS
from repro.os.seccomp import ArgRule, build_pkru_filter
from repro.os.syscalls import SYS_PKEY_MPROTECT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox


class MPKBackend(Backend):
    """Intel MPK enforcement."""

    name = "mpk"
    #: Keys come from one clustering of the whole program (§5.3).
    incremental = False

    def __init__(self, virtualize_keys: bool = False,
                 arg_rules: list[ArgRule] | None = None):
        super().__init__()
        #: libmpk-style key virtualization for programs whose clustering
        #: exceeds 16 meta-packages (ablation in the benchmarks).
        self.virtualize_keys = virtualize_keys
        #: Optional §6.5 argument-granular filter extension.
        self.arg_rules = arg_rules or []
        self.key_of_meta: dict[int, int] = {}
        #: Meta ids that share the overflow key under virtualization.
        self._virtualized_metas: set[int] = set()
        #: Environment ids whose meta is virtualized — precomputed at
        #: Init so the per-switch check is one frozenset probe instead
        #: of a clustering lookup.
        self._virt_env_ids: frozenset[int] = frozenset()
        self._owner_key_cache: dict[str, int] = {}

    # ------------------------------------------------------------------ init

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox
        kernel = litterbox.kernel
        if kernel.host_table is None:
            raise ConfigError("MPK backend requires the host page table")

        self._scan_for_pkru_writers(litterbox.image)

        metas = litterbox.clustering.metas
        hardware_keys = NUM_KEYS - 1  # key 0 stays the default key
        if len(metas) > hardware_keys and not self.virtualize_keys:
            raise ConfigError(
                f"{len(metas)} meta-packages exceed the {hardware_keys} "
                "allocatable MPK keys; enable key virtualization (libmpk)")
        for meta in metas:
            if meta.id < hardware_keys:
                self.key_of_meta[meta.id] = kernel.pkeys.alloc()
            else:
                # Virtualized: share the final hardware key; switches
                # involving these metas pay pkey_mprotect re-tagging.
                self.key_of_meta[meta.id] = NUM_KEYS - 1
                self._virtualized_metas.add(meta.id)

        # Tag every package's pages with its meta-package key.
        for pkg in litterbox.graph:
            meta_id = litterbox.clustering.meta_of[pkg.name]
            key = self.key_of_meta[meta_id]
            for section in pkg.sections:
                updated = kernel.host_table.set_pkey_range(
                    section.base, section.size, key)
                litterbox.clock.charge(COSTS.PKEY_SET_PAGE * updated)

        # One PKRU value per environment.
        for env in litterbox.envs.values():
            env.pkru = self._pkru_for(env)
        self._virt_env_ids = frozenset(
            env.id for env in litterbox.envs.values()
            if env.spec is not None
            and litterbox.clustering.meta_of.get(env.spec.pseudo_package)
            in self._virtualized_metas)

        # One seccomp program for the whole application.
        env_masks: dict[int, frozenset[int]] = {}
        for env in litterbox.envs.values():
            mask = frozenset(env.syscalls)
            if env.pkru in env_masks and env_masks[env.pkru] != mask:
                # Two clustering-identical views with different filters
                # share a PKRU value; fail closed with the intersection.
                mask = env_masks[env.pkru] & mask
            env_masks[env.pkru] = mask
        kernel.load_seccomp(build_pkru_filter(env_masks, self.arg_rules))

    def _pkru_for(self, env: Environment) -> int:
        if env.trusted:
            return PKRU_ALLOW_ALL
        rights: dict[int, str] = {}
        for meta in self.litterbox.clustering.metas:
            access = env.access_to(meta.packages[0])
            key = self.key_of_meta[meta.id]
            spec = {"U": None, "R": "r", "RW": "rw", "RWX": "rw"}[access.name]
            if spec is None:
                continue
            prior = rights.get(key)
            if prior is None or (prior == "r" and spec == "rw"):
                rights[key] = spec
        return make_pkru(rights)

    def _scan_for_pkru_writers(self, image) -> None:
        """Only LitterBox's own package may contain WRPKRU (§5.3)."""
        symbols_by_addr = {addr: name for name, addr in image.symbols.items()}
        for addr, instrs in image.code_registry.items():
            owner = symbols_by_addr.get(addr, "?")
            if owner.startswith(LITTERBOX_USER + "."):
                continue
            for instr in instrs:
                if instr.op in PKRU_WRITING_OPS:
                    raise ConfigError(
                        f"binary scan: function {owner!r} contains "
                        f"{instr.op.name}; only LitterBox may modify PKRU")

    # --------------------------------------------------------------- switches

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        # An MPK switch is only a PKRU write, which does NOT flush the
        # TLB on real hardware — and must not here: PKRU is excluded
        # from the MMU's TLB tag and protection keys are re-checked on
        # every data access, so a hot entry cannot outlive a revocation
        # (regression-guarded by tests/test_tlb.py).
        litterbox = self.litterbox
        litterbox.clock.charge(COSTS.VERIF_MPK)
        if env.id in self._virt_env_ids:
            self._retag_virtualized(env)
        cpu.write_pkru(env.pkru)

    def _retag_virtualized(self, env: Environment) -> None:
        """libmpk-style eviction: re-tag the overflow key's pages so that
        it represents this environment's overflow meta-package."""
        litterbox = self.litterbox
        if litterbox.obs is not None:
            litterbox.obs.on_retag(env.name)
        owner_meta = litterbox.clustering.meta_for(env.spec.pseudo_package)
        for pkg in owner_meta.packages:
            for section in litterbox.graph.get(pkg).sections:
                litterbox.kernel.syscall(
                    SYS_PKEY_MPROTECT,
                    (section.base, section.size, int(section.perms),
                     NUM_KEYS - 1),
                    None, pkru=PKRU_ALLOW_ALL)

    # --------------------------------------------------------------- transfer

    def transfer(self, section: Section, to_pkg: str) -> None:
        """Arena extension via ``pkey_mprotect`` (the ~1µs row of Table 1)."""
        key = self.key_for_package(to_pkg)
        result = self.litterbox.kernel.syscall(
            SYS_PKEY_MPROTECT,
            (section.base, section.size, int(Perm.RW), key),
            None, pkru=PKRU_ALLOW_ALL)
        if result < 0:
            raise Fault("exec", f"pkey_mprotect failed ({result})")

    def key_for_package(self, pkg: str) -> int:
        key = self._owner_key_cache.get(pkg)
        if key is None:
            meta_id = self.litterbox.clustering.meta_of[pkg]
            key = self.key_of_meta[meta_id]
            self._owner_key_cache[pkg] = key
        return key

    def prepare_stack(self, env: Environment, section: Section) -> None:
        """Stacks are tagged with the enclosure's own key so the
        enclosure can use them while others cannot."""
        if env.spec is None:
            return  # trusted stacks keep the default key (0)
        self.transfer(section, env.spec.pseudo_package)

    # ---------------------------------------------------------------- syscall

    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        """Host syscall; the kernel's seccomp filter sees the live PKRU."""
        return self.litterbox.kernel.syscall(nr, args, cpu.ctx, cpu.pkru)

    # ------------------------------------------------------------ containment

    def contained_fault(self, cpu: CPU) -> None:
        """A contained MPK fault is a SIGSEGV delivered to the runtime's
        handler: one kernel entry instead of process death."""
        self.litterbox.clock.charge(COSTS.HOST_SYSCALL)

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke: the quarantined environment's PKRU value keeps
        only the default key, so even a forged switch into it can no
        longer touch any package's data.

        On SMP the revocation must reach cores that may be running with
        the stale PKRU in their register right now — a pure register
        rewrite gets no page-table shootdown, so the machine's
        ``remote_flush`` hook charges the explicit IPI round."""
        env.pkru = PKRU_DENY_ALL_BUT_0
        if self.remote_flush is not None:
            self.remote_flush()

    def unquarantine(self, env: Environment) -> None:
        """Supervised revival: recompute the environment's PKRU from its
        memory view (the view itself never changed — only the cached
        register value was revoked)."""
        env.pkru = self._pkru_for(env)
        if self.remote_flush is not None:
            self.remote_flush()
