// Command gctrace runs one benchmark or one traffic harness and reports the
// garbage collector's behaviour; see package gctrace for the flags and the
// report.
package main

import (
	"os"

	"repro/internal/gctrace"
)

func main() {
	os.Exit(gctrace.Run(os.Args[1:], os.Stdout, os.Stderr))
}
