package lint

import (
	"strconv"
	"strings"
)

var oracleAnalyzer = &Analyzer{
	Name: "oracle",
	Doc: "the pointer-walking reference simulator (internal/logicsim/ref) is a " +
		"test oracle: no non-test file may import it, so every production path " +
		"runs on logicsim's flat core and the oracle stays independent of it",
	Run: runOracle,
}

// runOracle flags every import of the oracle package. The loader hands
// analyzers non-test files only, so test files are free to import it.
func runOracle(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !isOraclePath(path) {
				continue
			}
			out = p.finding(out, "oracle", imp.Pos(),
				"%s is the test-only reference simulator; production code runs on the logicsim flat core", path)
		}
	}
	return out
}

func isOraclePath(path string) bool {
	return path == "internal/logicsim/ref" || strings.HasSuffix(path, "/internal/logicsim/ref")
}
