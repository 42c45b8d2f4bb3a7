"""Semantic checks for the paper's Figures 1 and 2.

Figure 1: the rcl enclosure around libFx's Invert, with secrets shared
read-only and all system calls disabled; rcl cannot modify the original
image and faults if it touches main's private key.

Figure 2: which resources live in which package's arena while rcl
executes — `original` in secrets' arena, `inv` (the fresh inverted
image) in the *enclosure's own* arena, `key` in main's data.
"""

import pytest

from repro.golite import build_program
from repro.machine import Machine, MachineConfig

SECRETS = """
package secrets

var Original *Image

func Load(n int) {
    img := new(Image)
    img.w = n
    img.h = 1
    img.pix = make([]int, n)
    for i := 0; i < n; i++ {
        img.pix[i] = i
    }
    Original = img
}
"""

LIBFX = """
package libfx

type Image struct {
    w int
    h int
    pix []int
}

func Invert(img *Image) *Image {
    inv := new(Image)
    inv.w = img.w
    inv.h = img.h
    inv.pix = make([]int, len(img.pix))
    for i := 0; i < len(img.pix); i++ {
        inv.pix[i] = 255 - img.pix[i]
    }
    return inv
}
"""

MAIN = """
package main

import (
    "libfx"
    "secrets"
)

var key int = 424242
var invPtr int

func main() {
    secrets.Load(8)
    rcl := with "secrets:R, none" func(im *Image) *Image {
        return libfx.Invert(im)
    }
    out := rcl(secrets.Original)
    invPtr = dataptr(out.pix)
    println(out.pix[0], secrets.Original.pix[0])
}
"""


@pytest.fixture(params=["mpk", "vtx"])
def machine(request):
    image = build_program([SECRETS, LIBFX, MAIN])
    m = Machine(image, MachineConfig(backend=request.param))
    result = m.run()
    assert result.status == "exited", m.fault
    return m


class TestFigure1:
    def test_inversion_computed_and_secret_intact(self, machine):
        assert machine.stdout == b"255 0\n"

    def test_two_switches(self, machine):
        assert machine.clock.count("switches") == 2

    def test_rcl_view_matches_figure(self, machine):
        """Natural deps libfx (+img, folded into libfx here), secrets
        extended read-only, main and os absent."""
        spec = machine.image.enclosures[0]
        env = machine.litterbox.env(spec.id)
        assert env.access_to("libfx").name == "RWX"
        assert env.access_to("secrets").name == "R"
        assert env.access_to("main").name == "U"
        assert env.syscalls == frozenset()


class TestFigure2:
    """Color-coding of Figure 2: which arena holds which value."""

    def _arena_owner(self, machine, addr):
        return machine.litterbox.arena_owner.get(addr >> 12)

    def test_original_lives_in_secrets_arena(self, machine):
        original_ptr = machine.read_global("secrets.Original")
        assert self._arena_owner(machine, original_ptr) == "secrets"

    def test_inv_lives_in_enclosure_arena(self, machine):
        """Figure 2 shows `inv` inside rcl's own arena: allocations made
        by code running in the enclosure... but Invert is libfx code, so
        its allocations go to libfx's arena; the *closure's* own
        allocations would go to encl.main_1.  Both are inside the
        enclosure's view and outside main's."""
        inv_pix = machine.read_global("main.invPtr")
        owner = self._arena_owner(machine, inv_pix)
        assert owner in ("libfx", "encl.main_1")
        spec = machine.image.enclosures[0]
        env = machine.litterbox.env(spec.id)
        assert env.access_to(owner).name == "RWX"

    def test_key_lives_in_main_data_not_an_arena(self, machine):
        key_addr = machine.symbol("main.key")
        section = machine.image.section_named("main.data").section
        assert section.contains(key_addr)
        assert machine.read_global("main.key") == 424242

    def test_closure_record_in_enclosure_arena(self, machine):
        """The rcl closure value itself is an enclosure-owned resource."""
        records = machine.litterbox.arena_of("encl.main_1")
        assert records  # the closure record allocation created it
