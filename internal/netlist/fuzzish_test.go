package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzParseBench throws structured garbage at the parser: it must
// return an error or a circuit that validates, has stats, and survives a
// write → parse → write round trip with identical bytes. The seed corpus
// mixes valid tokens, truncations, and junk; `make fuzz` explores beyond
// it, plain `go test` replays it.
func FuzzParseBench(f *testing.F) {
	tokens := []string{
		"INPUT(a)", "INPUT(b)", "OUTPUT(z)", "z = AND(a, b)",
		"z = AND(a", "= AND(a, b)", "z AND a b", "INPUT()", "OUTPUT(",
		"z = FLIP(a)", "# comment", "", "  ", "z = NOT(a, b)",
		"w = XOR(z, a)", "INPUT(a)", "q = BUFF(a)", "r = INV(b)",
		"z = NAND(ghost, a)", ")(", "====", "OUTPUT(z)",
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte('\n')
		}
		f.Add(sb.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBench("fuzz", strings.NewReader(src))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parsed circuit fails validation: %v\ninput:\n%s", err, src)
		}
		if _, err := c.ComputeStats(); err != nil {
			t.Fatalf("parsed circuit has no stats: %v\ninput:\n%s", err, src)
		}
		var first, second bytes.Buffer
		if err := c.WriteBench(&first); err != nil {
			t.Fatalf("write: %v\ninput:\n%s", err, src)
		}
		c2, err := ParseBench("fuzz", bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written circuit does not parse: %v\nwritten:\n%s", err, first.String())
		}
		if err := c2.WriteBench(&second); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\nthen:\n%s", first.String(), second.String())
		}
	})
}
