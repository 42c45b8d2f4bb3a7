"""Synthetic public-package corpus.

The paper's macrobenchmarks lean on the *scale* of public dependencies:
bild silently drags in 166K LOC across 15 packages, FastHTTP 374K LOC
across 100 packages (Table 2).  This module generates real, compiled
Golite dependency trees of a given package count, and lets workloads
stamp the paper's reported line counts onto the code objects (our
generated bodies are deliberately small so compilation stays fast; the
LOC column of Table 2 is modeled metadata, which DESIGN.md documents).
"""

from __future__ import annotations


def dependency_sources(prefix: str, count: int, fanout: int = 4) -> list[str]:
    """Generate ``count`` packages named ``<prefix>0..N``.

    Packages form a tree: package ``i`` imports its up-to-``fanout``
    children, giving the importer a deep transitive dependency graph
    like a real public library's.  Each package exports a ``Work``
    function that touches its own state, so the packages genuinely
    execute and allocate inside whatever environment imports them.
    """
    sources = []
    for i in range(count):
        children = [f"{prefix}{j}" for j in
                    range(i * fanout + 1, min(count, i * fanout + 1 + fanout))]
        imports = "".join(f'    "{c}"\n' for c in children)
        import_block = f"import (\n{imports})\n" if children else ""
        calls = "".join(f"    total = total + {c}.Work(x + {k})\n"
                        for k, c in enumerate(children))
        sources.append(f"""
package {prefix}{i}

{import_block}
var state int

func Work(x int) int {{
    state = state + 1
    total := x * {i + 1}
    {calls if calls else ""}
    return total + state
}}
""")
    return sources


def stamp_loc(objects, loc_by_pkg: dict[str, int]) -> None:
    """Overwrite modeled LOC metadata on compiled code objects."""
    for obj in objects:
        if obj.name in loc_by_pkg:
            obj.loc = loc_by_pkg[obj.name]
