"""Program image: compiler output (code objects) and linker output (ELF).

Mirrors §5.1: "The compiler outputs one code object per package that
contains the expected .text (functions), .data (global variables), and
.rodata (constants) sections, as well as a .rstrct section containing
the package's enclosures configurations and direct dependencies", and
the linker emits an executable with three distinguished sections —
``.pkgs``, ``.rstrct``, and ``.verif`` — consumed by LitterBox's
``Init``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.enclosure import EnclosureSpec
from repro.core.packages import DependenceGraph
from repro.hw.pages import Perm, Section
from repro.isa.instr import Instr


@dataclass
class FuncDef:
    """One compiled function: unresolved instructions plus metadata."""

    name: str                      # fully qualified, e.g. "bild.Invert"
    instrs: list[Instr]
    enclosure: str | None = None   # enclosure name if part of its section


@dataclass
class GlobalDef:
    """One package-level variable in `.data`."""

    name: str                      # fully qualified
    size: int                      # bytes, word-aligned
    init: bytes = b""


@dataclass
class CodeObject:
    """Compiler output for one package."""

    name: str
    imports: tuple[str, ...] = ()
    functions: list[FuncDef] = field(default_factory=list)
    globals: list[GlobalDef] = field(default_factory=list)
    rodata: dict[str, bytes] = field(default_factory=dict)
    enclosures: list[EnclosureSpec] = field(default_factory=list)
    loc: int = 0
    trusted: bool = False

    def function(self, qualified: str) -> FuncDef:
        for func in self.functions:
            if func.name == qualified:
                return func
        raise KeyError(qualified)


@dataclass
class LoadSection:
    """A linked section with its initial contents."""

    section: Section
    data: bytes
    owner: str
    kind: str  # text | rodata | data | meta

    def describe(self) -> str:
        s = self.section
        return (f"{s.base:#010x} {s.size:>7} {s.perms.label()} "
                f"{self.kind:<6} {s.name}")


@dataclass
class ElfImage:
    """The linked executable."""

    sections: list[LoadSection]
    symbols: dict[str, int]
    graph: DependenceGraph
    enclosures: list[EnclosureSpec]
    #: LBCALL call-site address -> hook id (the `.verif` contents).
    verif: dict[int, int]
    entry: int
    #: function address -> resolved instructions, for the interpreter.
    code_registry: dict[int, list[Instr]] = field(default_factory=dict)
    #: The JIT's regions and traces for this image's code, shared by
    #: every machine built from it (see :class:`repro.isa.jit.JitCompiler`).
    jit_memo: dict = field(default_factory=dict, repr=False, compare=False)

    def section_named(self, name: str) -> LoadSection:
        for load in self.sections:
            if load.section.name == name:
                return load
        raise KeyError(name)

    def sections_of(self, pkg: str) -> list[LoadSection]:
        return [load for load in self.sections if load.owner == pkg]

    def enclosure_named(self, name: str) -> EnclosureSpec:
        for spec in self.enclosures:
            if spec.name == name:
                return spec
        raise KeyError(name)

    # -- the three distinguished ELF sections (serialized metadata) -------

    def pkgs_blob(self) -> bytes:
        payload = [
            {
                "name": pkg.name,
                "imports": list(pkg.imports),
                "loc": pkg.loc,
                "trusted": pkg.trusted,
                "sections": [
                    {"name": s.name, "base": s.base, "size": s.size,
                     "perms": int(s.perms)}
                    for s in pkg.sections
                ],
            }
            for pkg in self.graph
        ]
        return json.dumps(payload, sort_keys=True).encode()

    def rstrct_blob(self) -> bytes:
        payload = [
            {
                "id": spec.id,
                "name": spec.name,
                "owner": spec.owner,
                "refs": list(spec.refs),
                "policy": spec.policy.describe(),
                "thunk": spec.thunk_addr,
                "body": spec.body_addr,
            }
            for spec in self.enclosures
        ]
        return json.dumps(payload, sort_keys=True).encode()

    def verif_blob(self) -> bytes:
        payload = sorted([addr, hook] for addr, hook in self.verif.items())
        return json.dumps(payload).encode()

    def describe_layout(self) -> str:
        """Figure-4-style dump of the final executable's contents."""
        lines = ["ADDRESS      SIZE PERM KIND   SECTION"]
        for load in sorted(self.sections, key=lambda l: l.section.base):
            lines.append(load.describe())
        return "\n".join(lines)
