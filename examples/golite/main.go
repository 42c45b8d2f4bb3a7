// The Figure 1 application: a sensitive pixel is passed through the
// untrusted libfx.Invert inside an enclosure that grants no system
// calls.  Run it, tracing the enforcement events into a bundle, with:
//
//	python -m repro run examples/golite/libfx.go examples/golite/main.go \
//	    --backend mpk --artifacts fig1
package main

import "libfx"

func main() {
	secret := 42
	rcl := with "none" func(p int) int { return libfx.Invert(p) }
	println(rcl(secret))
}
