"""The bild macrobenchmark (paper §6.2, Table 2).

A Go-like image-processing public package ("bild") with a deep
dependency tree, used by a 32-LOC application that inverts a sensitive
in-memory image.  The call to ``bild.Invert`` is enclosed with the
default memory view extended read-only to ``main`` (which holds the
image) and all system calls disabled — exactly the paper's setup.

The workload is "purely computational and memory-intensive as it
allocates and computes an inverted image": Invert allocates a fresh
output image plus one scratch row per line, so the allocator keeps
requesting spans, each triggering a LitterBox ``Transfer`` — the cost
that makes LBMPK slower than LBVTX here.
"""

from __future__ import annotations

from functools import lru_cache

from repro.golite import compile_program
from repro.image.elf import ElfImage
from repro.image.linker import link
from repro.machine import Machine, MachineConfig
from repro.workloads import corpus

#: Paper-reported metadata for Table 2 (modeled; see DESIGN.md).
BILD_PUBLIC_DEPS = 15
BILD_ENCLOSED_LOC = 166_000
APP_LOC = 32

BILD_SOURCE = """
package bild

import (
    "bdep0"
)

type Image struct {
    w int
    h int
    pix []int
}

func NewImage(w int, h int) *Image {
    img := new(Image)
    img.w = w
    img.h = h
    img.pix = make([]int, w*h)
    return img
}

// Invert returns a new image with every pixel inverted.  It allocates
// a scratch row per line (Go image code is allocation-happy), keeping
// the span allocator busy.
func Invert(img *Image) *Image {
    out := NewImage(img.w, img.h)
    seed := bdep0.Work(img.w)
    for y := 0; y < img.h; y++ {
        row := make([]int, img.w)
        for x := 0; x < img.w; x++ {
            row[x] = 255 - img.pix[y*img.w+x]
        }
        for x := 0; x < img.w; x++ {
            out.pix[y*img.w+x] = row[x]
        }
    }
    out.pix[0] = out.pix[0] + seed - seed
    return out
}

// Checksum folds the image into one word (used by the app to consume
// the result without printing megabytes).
func Checksum(img *Image) int {
    sum := 0
    for i := 0; i < len(img.pix); i++ {
        sum = sum + img.pix[i]
    }
    return sum
}

// Grayscale averages a 3-pixel window (bild offers the same family of
// per-pixel transforms).
func Grayscale(img *Image) *Image {
    out := NewImage(img.w, img.h)
    n := len(img.pix)
    for i := 0; i < n; i++ {
        lo := i - 1
        hi := i + 1
        if lo < 0 {
            lo = 0
        }
        if hi >= n {
            hi = n - 1
        }
        out.pix[i] = (img.pix[lo] + img.pix[i] + img.pix[hi]) / 3
    }
    return out
}

// Brightness adds delta to every pixel, clamped to [0, 255].
func Brightness(img *Image, delta int) *Image {
    out := NewImage(img.w, img.h)
    for i := 0; i < len(img.pix); i++ {
        v := img.pix[i] + delta
        if v < 0 {
            v = 0
        }
        if v > 255 {
            v = 255
        }
        out.pix[i] = v
    }
    return out
}

// Histogram counts pixels into 8 brightness buckets.
func Histogram(img *Image) []int {
    buckets := make([]int, 8)
    for i := 0; i < len(img.pix); i++ {
        b := img.pix[i] / 32
        if b > 7 {
            b = 7
        }
        buckets[b] = buckets[b] + 1
    }
    return buckets
}

// BoxBlur is a 3x1 horizontal box filter, row by row, allocating a
// scratch row per line like Invert does.
func BoxBlur(img *Image) *Image {
    out := NewImage(img.w, img.h)
    for y := 0; y < img.h; y++ {
        row := make([]int, img.w)
        for x := 0; x < img.w; x++ {
            acc := img.pix[y*img.w+x]
            cnt := 1
            if x > 0 {
                acc = acc + img.pix[y*img.w+x-1]
                cnt++
            }
            if x < img.w-1 {
                acc = acc + img.pix[y*img.w+x+1]
                cnt++
            }
            row[x] = acc / cnt
        }
        for x := 0; x < img.w; x++ {
            out.pix[y*img.w+x] = row[x]
        }
    }
    return out
}
"""


def app_source(width: int, height: int, iterations: int) -> str:
    """The 32-LOC application that loads and inverts a sensitive image."""
    return f"""
package main

import (
    "bild"
)

var sensitive *Image
var result int

func load() *Image {{
    // Allocated here, in main's arena: the pixels are part of the
    // application's sensitive state, shared read-only with rcl.
    img := new(Image)
    img.w = {width}
    img.h = {height}
    img.pix = make([]int, {width} * {height})
    for i := 0; i < len(img.pix); i++ {{
        img.pix[i] = i % 256
    }}
    return img
}}

func main() {{
    sensitive = load()
    rcl := with "main:R, none" func(im *Image) *Image {{
        return bild.Invert(im)
    }}
    acc := 0
    for iter := 0; iter < {iterations}; iter++ {{
        out := rcl(sensitive)
        acc = acc + bild.Checksum(out)
    }}
    result = acc
}}
"""


@lru_cache(maxsize=None)
def build_bild_image(width: int = 32, height: int = 32,
                     iterations: int = 1) -> ElfImage:
    # Safe to memoize: the linked image is immutable after `link` —
    # machines copy section bytes into their own frames and build the
    # interpreter's code/fusion state in per-machine dicts; the JIT's
    # regions and traces, which depend only on the code, are shared
    # through the image's ``jit_memo``.
    deps = corpus.dependency_sources("bdep", BILD_PUBLIC_DEPS)
    sources = [BILD_SOURCE, app_source(width, height, iterations)] + deps
    objects = compile_program(sources)
    loc_model = {"bild": 4_000, "main": APP_LOC}
    per_dep = (BILD_ENCLOSED_LOC - 4_000) // BILD_PUBLIC_DEPS
    for i in range(BILD_PUBLIC_DEPS):
        loc_model[f"bdep{i}"] = per_dep
    corpus.stamp_loc(objects, loc_model)
    return link(objects, entry="main.$start")


def run_bild(backend: str, width: int = 32, height: int = 32,
             iterations: int = 1, trace: bool = False,
             config: MachineConfig | None = None) -> Machine:
    """Run the bild app; returns the finished machine (check .clock,
    and .tracer for the per-enclosure breakdown when ``trace=True``)."""
    if config is None:
        config = MachineConfig(backend=backend, trace=trace)
    machine = Machine(build_bild_image(width, height, iterations), config)
    result = machine.run()
    if result.status != "exited":
        raise AssertionError(f"bild/{backend} failed: {machine.fault}")
    return machine
