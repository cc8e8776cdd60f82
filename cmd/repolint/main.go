// Command repolint runs the repo-contract analyzers (determinism,
// registry, invalidation, hotpath, sentinel-errors, oracle) over the
// module.
// It exits 0 when clean, 1 on findings, 2 on usage or load errors.
//
// Built entirely on the standard library (go/parser, go/types); see
// internal/lint for the analyzer registry and annotation comments.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
