"""Packages and the package-dependence graph (paper §2.1).

A program is a collection of packages organized as a directed
dependence graph, statically determinable from import statements.  A
package's *natural dependencies* are its direct plus transitive
dependencies; a package outside that set is *foreign* to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.hw.pages import Section


@dataclass
class PackageInfo:
    """LitterBox's description of one package (paper §4.1).

    A package is a collection of non-overlapping sections: typically
    text (RX), rodata (R), data (RW), and a dynamically growing arena.
    """

    name: str
    imports: tuple[str, ...] = ()
    sections: list[Section] = field(default_factory=list)
    #: Estimated source size, used by the TCB accounting in Table 2.
    loc: int = 0
    #: Trusted infrastructure (litterbox.user/super, runtime) is never
    #: subject to enclosure restriction policies.
    trusted: bool = False

    def add_section(self, section: Section) -> None:
        self.sections.append(section)


class DependenceGraph:
    """The program's directed package-dependence graph."""

    def __init__(self, packages=()) -> None:
        self._packages: dict[str, PackageInfo] = {}
        for package in packages:
            self.add(package)

    def __contains__(self, name: str) -> bool:
        return name in self._packages

    def __iter__(self):
        return iter(self._packages.values())

    def names(self) -> list[str]:
        return sorted(self._packages)

    def add(self, package: PackageInfo) -> None:
        if package.name in self._packages:
            raise ConfigError(f"duplicate package {package.name!r}")
        self._packages[package.name] = package

    def merged(self, packages) -> "DependenceGraph":
        """A copy of this graph with ``packages`` registered, as an Init
        with partial information does (§5.2): a known package gains the
        imports it brings, and no sections."""
        graph = DependenceGraph(self)
        for package in packages:
            known = graph._packages.get(package.name)
            if known is not None:
                if package.sections:
                    raise ConfigError(
                        f"package {package.name!r} already registered")
                package = replace(known, imports=tuple(
                    dict.fromkeys(known.imports + package.imports)))
            graph._packages[package.name] = package
        graph._check_imports(packages)
        return graph

    def get(self, name: str) -> PackageInfo:
        try:
            return self._packages[name]
        except KeyError:
            raise ConfigError(f"unknown package {name!r}") from None

    def _check_imports(self, packages) -> None:
        for package in packages:
            for dep in package.imports:
                if dep not in self._packages:
                    raise ConfigError(
                        f"package {package.name!r} imports unknown "
                        f"package {dep!r}")

    def validate(self) -> None:
        """Check import closure and reject import cycles (as Go does)."""
        self._check_imports(self._packages.values())
        state: dict[str, int] = {}  # 0 visiting, 1 done

        def visit(name: str, trail: tuple[str, ...]) -> None:
            mark = state.get(name)
            if mark == 1:
                return
            if mark == 0:
                cycle = " -> ".join(trail + (name,))
                raise ConfigError(f"import cycle: {cycle}")
            state[name] = 0
            for dep in self._packages[name].imports:
                visit(dep, trail + (name,))
            state[name] = 1

        for name in self._packages:
            visit(name, ())

    def natural_dependencies(self, name: str) -> frozenset[str]:
        """Direct plus transitive dependencies of ``name`` (excl. itself,
        per the paper's definition)."""
        root = self.get(name)
        seen: set[str] = set()
        stack = list(root.imports)
        while stack:
            dep = stack.pop()
            if dep in seen:
                continue
            seen.add(dep)
            stack.extend(self.get(dep).imports)
        seen.discard(name)
        return frozenset(seen)

    def is_foreign(self, name: str, other: str) -> bool:
        """``other`` is foreign to ``name`` if not a natural dependency."""
        if other == name:
            return False
        return other not in self.natural_dependencies(name)

    def dependents(self, name: str) -> frozenset[str]:
        """Packages whose natural dependencies include ``name``."""
        return frozenset(
            pkg.name for pkg in self
            if name in self.natural_dependencies(pkg.name))
