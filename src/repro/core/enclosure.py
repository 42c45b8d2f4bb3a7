"""Enclosure definitions, memory views, and execution environments.

An enclosure binds a dynamically scoped *memory view* and a set of
allowed system calls to a closure (paper §2).  At run time each
enclosure corresponds to an *execution environment*; switches may only
enter an equal-or-more-restrictive environment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packages import DependenceGraph
from repro.core.policy import Access, Policy
from repro.errors import PolicyError
from repro.hw.pagetable import PageTable

#: Name of the always-available LitterBox user package (§5.3).
LITTERBOX_USER = "litterbox.user"
#: Name of the protected LitterBox super package.
LITTERBOX_SUPER = "litterbox.super"

TRUSTED_ENV_ID = 0


@dataclass
class EnclosureSpec:
    """Compiler-emitted description of one enclosure (`.rstrct` entry).

    The closure is its own unit of resources (Figure 2 gives ``rcl`` its
    own text section and arena): the linker materializes it as a
    pseudo-package named ``encl.<name>`` whose imports are the packages
    the closure's body references (``refs``, identified by the type
    checker, §5.1).  The enclosure's default memory view is that
    pseudo-package's natural dependencies — *not* the declaring
    package's, which is why Figure 1's ``rcl`` cannot see ``main``.
    """

    id: int
    name: str
    owner: str               # package declaring the closure
    policy: Policy
    refs: tuple[str, ...] = ()
    thunk_symbol: str = ""
    body_symbol: str = ""
    thunk_addr: int = 0      # filled by the linker
    body_addr: int = 0

    @property
    def pseudo_package(self) -> str:
        return f"encl.{self.name}"


MemoryView = dict[str, Access]


def compute_view(graph: DependenceGraph, spec: EnclosureSpec) -> MemoryView:
    """Compute an enclosure's full memory view.

    Default: full access to the closure itself and its natural
    dependencies.  User modifiers then restrict members or extend the
    view to foreign packages.  Trusted infrastructure packages are
    available in every environment.  ``U`` entries are removed (the
    package is unmapped).
    """
    view: MemoryView = {spec.pseudo_package: Access.RWX}
    for dep in graph.natural_dependencies(spec.pseudo_package):
        view[dep] = Access.RWX
    for pkg in graph.names():
        # The litterbox.user package "is available in all execution
        # environments" (§5.3); super is never exposed.
        if graph.get(pkg).trusted and pkg != LITTERBOX_SUPER:
            view[pkg] = Access.RWX
    for pkg, access in spec.policy.modifiers.items():
        if pkg not in graph:
            raise PolicyError(
                f"enclosure {spec.name!r}: modifier names unknown "
                f"package {pkg!r}")
        if graph.get(pkg).trusted:
            raise PolicyError(
                f"enclosure {spec.name!r}: cannot modify trusted "
                f"package {pkg!r}")
        if access is Access.U:
            view.pop(pkg, None)
        else:
            view[pkg] = access
    return view


@dataclass
class Environment:
    """A runtime execution environment enforcing one memory view.

    The trusted environment (``id == 0``) has ``view=None``, meaning
    unrestricted access and all system calls.
    """

    id: int
    name: str
    view: MemoryView | None
    syscalls: frozenset[int]
    spec: EnclosureSpec | None = None
    # Backend state.
    pkru: int | None = None          # LBMPK
    table: PageTable | None = None   # LBVTX

    @property
    def trusted(self) -> bool:
        return self.view is None

    def access_to(self, pkg: str) -> Access:
        if self.view is None:
            return Access.RWX
        return self.view.get(pkg, Access.U)

    def allows_syscall(self, nr: int) -> bool:
        return self.trusted or nr in self.syscalls

    def is_subset_of(self, other: "Environment") -> bool:
        """True if this environment is equal-or-more-restrictive than
        ``other`` — the precondition for a legal switch (§2.2)."""
        if other.trusted:
            return True
        if self.trusted:
            return False
        own = self.spec.pseudo_package if self.spec is not None else None
        for pkg, access in self.view.items():
            if pkg == own:
                # The closure's own text/arena is the unit being entered,
                # not a pre-existing program resource being gained.
                continue
            if not other.access_to(pkg).includes(access):
                return False
        return self.syscalls <= other.syscalls

    def describe(self) -> str:
        if self.trusted:
            return f"env#{self.id} {self.name} (trusted)"
        packages = " ".join(f"{pkg}:{acc.name}"
                            for pkg, acc in sorted(self.view.items()))
        return f"env#{self.id} {self.name} [{packages}] syscalls={len(self.syscalls)}"


def make_trusted_environment() -> Environment:
    from repro.os.syscalls import ALL_SYSCALLS
    return Environment(id=TRUSTED_ENV_ID, name="trusted", view=None,
                       syscalls=frozenset(ALL_SYSCALLS))
