package diagnose

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

func buildDict(t *testing.T) (*Dictionary, []fault.Fault) {
	t.Helper()
	c, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 5)
	if err != nil {
		t.Fatal(err)
	}
	patterns := atpg.Take(src, 96)
	d, err := Build(c, faults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	return d, faults
}

func TestBuildErrors(t *testing.T) {
	c := netlist.C17()
	if _, err := Build(c, nil, nil); err == nil {
		t.Error("no patterns should error")
	}
}

func TestSyndromeHelpers(t *testing.T) {
	s := Syndrome{0, 0b101, 0}
	if !s.Fails() || s.FirstFail() != 1 {
		t.Error("syndrome helpers")
	}
	empty := Syndrome{0, 0}
	if empty.Fails() || empty.FirstFail() != -1 {
		t.Error("passing syndrome helpers")
	}
}

func TestDistance(t *testing.T) {
	a := Syndrome{0b11, 0}
	b := Syndrome{0b01, 0b1}
	if got := distance(a, b); got != 2 {
		t.Errorf("distance = %d, want 2", got)
	}
	// Length mismatch counts the overhang.
	if got := distance(Syndrome{0b1}, Syndrome{0b1, 0b11}); got != 2 {
		t.Errorf("ragged distance = %d, want 2", got)
	}
}

// randomChip draws a chip of one to five faults anywhere in the
// circuit, stems (primary inputs included) and input pins alike. About
// half the chips list one of their sites a second time with the other
// polarity, so the last-listed value must win.
func randomChip(c *netlist.Circuit, rng *rand.Rand) []logicsim.Injection {
	chip := make([]logicsim.Injection, 1+rng.Intn(5))
	for i := range chip {
		gate := rng.Intn(len(c.Gates))
		pin := -1
		if nf := len(c.Gates[gate].Fanin); nf > 0 && rng.Intn(2) == 0 {
			pin = rng.Intn(nf)
		}
		chip[i] = logicsim.Injection{Gate: gate, Pin: pin, Stuck: rng.Intn(2) == 1}
	}
	if rng.Intn(2) == 0 {
		again := chip[rng.Intn(len(chip))]
		again.Stuck = !again.Stuck
		chip = append(chip, again)
	}
	return chip
}

// TestBuildMatchesOracle pins the dictionary's single-fault walks to
// the pointer-walking oracle on c17, mul4 and the lsi1k fixture over 150
// patterns (a partial last block): every fault's syndrome must hold, at
// every pattern, exactly the outputs on which ref.Simulator's
// single-fault run differs from its good run. On lsi1k every fifth
// collapsed fault keeps the oracle quick.
func TestBuildMatchesOracle(t *testing.T) {
	for _, spec := range []string{"c17", "mul4", "lsi1k"} {
		c, err := circuits.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		var faults []fault.Fault
		for i, f := range fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c))) {
			if spec != "lsi1k" || i%5 == 0 {
				faults = append(faults, f)
			}
		}
		src, err := atpg.NewRandomSource(len(c.Inputs), 29)
		if err != nil {
			t.Fatal(err)
		}
		patterns := atpg.Take(src, 150)
		d, err := Build(c, faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := ref.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := logicsim.PackBlocks(patterns)
		if err != nil {
			t.Fatal(err)
		}
		detected := 0
		for bi, block := range blocks {
			good, err := sim.Run(block)
			if err != nil {
				t.Fatal(err)
			}
			good = append([]uint64(nil), good...)
			for fi, f := range faults {
				bad, err := sim.RunWithFault(block, f.Gate, f.Pin, f.Stuck)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < block.Count; p++ {
					var m uint64
					for o := range bad {
						m |= (bad[o] ^ good[o]) >> uint(p) & 1 << uint(o)
					}
					if got := d.syndromes[fi][bi*64+p]; got != m {
						t.Fatalf("%s fault %v pattern %d: failing outputs %b, oracle %b", spec, f.Name(c), bi*64+p, got, m)
					}
					if m != 0 {
						detected++
					}
				}
			}
		}
		if detected == 0 {
			t.Errorf("%s: no fault detected; the comparison saw only empty syndromes", spec)
		}
	}
}

// TestBuildIgnoresPaddingLanes: y = NOR(a, b) stuck-at-0 is detected by
// a = b = 0 only, the vector every padding lane of a partial block
// carries; a program without it must leave the fault's syndrome empty.
func TestBuildIgnoresPaddingLanes(t *testing.T) {
	c, err := netlist.ParseBench("nor", strings.NewReader("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.GateByName("y")
	faults := []fault.Fault{{Gate: y, Pin: -1, Stuck: false}}
	d, err := Build(c, faults, []logicsim.Pattern{{true, false}, {false, true}, {true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if d.syndromes[0].Fails() {
		t.Fatalf("syndrome %v, want no failing pattern", d.syndromes[0])
	}
}

// TestObserveChipMatchesOracle pins ObserveChip's one-word lane walk to
// the pointer-walking oracle on four builtins: for random multi-fault
// chips, every pattern's failing-output mask must be the outputs on
// which ref.Simulator's RunWithFaults differs from its good run.
func TestObserveChipMatchesOracle(t *testing.T) {
	for _, spec := range []string{"c17", "mul4", "alu4", "dec4"} {
		c, err := circuits.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		src, err := atpg.NewRandomSource(len(c.Inputs), 26)
		if err != nil {
			t.Fatal(err)
		}
		patterns := atpg.Take(src, 150) // the last block is partial
		d, err := Build(c, faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := ref.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := logicsim.PackBlocks(patterns)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(26))
		failing := 0
		for trial := 0; trial < 60; trial++ {
			chip := randomChip(c, rng)
			got, err := d.ObserveChip(chip)
			if err != nil {
				t.Fatal(err)
			}
			want := make(Syndrome, 0, len(patterns))
			for _, block := range blocks {
				good, err := sim.Run(block)
				if err != nil {
					t.Fatal(err)
				}
				good = append([]uint64(nil), good...)
				bad, err := sim.RunWithFaults(block, chip)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < block.Count; p++ {
					var m uint64
					for o := range bad {
						if (bad[o]^good[o])>>uint(p)&1 == 1 {
							m |= 1 << uint(o)
						}
					}
					want = append(want, m)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s chip %v: %d syndrome entries, want %d", spec, chip, len(got), len(want))
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("%s chip %v pattern %d: failing outputs %b, oracle %b", spec, chip, p, got[p], want[p])
				}
			}
			if want.Fails() {
				failing++
			}
		}
		if failing == 0 {
			t.Errorf("%s: no chip failed; the comparison saw only passing syndromes", spec)
		}
	}
}

func TestSingleFaultExactDiagnosis(t *testing.T) {
	// A chip with exactly one modelled fault must diagnose to a
	// candidate set that contains that fault at distance 0.
	d, faults := buildDict(t)
	for fi := 0; fi < len(faults); fi += 5 {
		f := faults[fi]
		syn, err := d.ObserveChip([]logicsim.Injection{{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}})
		if err != nil {
			t.Fatal(err)
		}
		if !syn.Fails() {
			continue // undetected by this pattern set; nothing to locate
		}
		cands := d.Diagnose(syn, 5)
		found := false
		for _, cand := range cands {
			if cand.Fault == f {
				if cand.Distance != 0 {
					t.Errorf("fault %v diagnosed at distance %d", f, cand.Distance)
				}
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fault %v not in top candidates", f)
		}
	}
}

func TestDiagnoseTopCandidateIsExact(t *testing.T) {
	d, faults := buildDict(t)
	f := faults[3]
	syn, err := d.ObserveChip([]logicsim.Injection{{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}})
	if err != nil {
		t.Fatal(err)
	}
	cands := d.Diagnose(syn, 1)
	if len(cands) == 0 || cands[0].Distance != 0 {
		t.Fatalf("best candidate %+v", cands)
	}
}

func TestDoubleFaultDiagnosisNearby(t *testing.T) {
	// Multi-fault chips aren't in the single-fault dictionary, but the
	// nearest candidates should usually include one of the two injected
	// faults (the classic dictionary-diagnosis heuristic).
	d, faults := buildDict(t)
	rng := rand.New(rand.NewSource(3))
	hits, trials := 0, 0
	for trial := 0; trial < 30; trial++ {
		i := rng.Intn(len(faults))
		j := rng.Intn(len(faults))
		if i == j {
			continue
		}
		fi, fj := faults[i], faults[j]
		syn, err := d.ObserveChip([]logicsim.Injection{
			{Gate: fi.Gate, Pin: fi.Pin, Stuck: fi.Stuck},
			{Gate: fj.Gate, Pin: fj.Pin, Stuck: fj.Stuck},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !syn.Fails() {
			continue
		}
		trials++
		for _, cand := range d.Diagnose(syn, 5) {
			if cand.Fault == fi || cand.Fault == fj {
				hits++
				break
			}
		}
	}
	if trials == 0 {
		t.Fatal("no usable double-fault trials")
	}
	if float64(hits) < 0.7*float64(trials) {
		t.Errorf("double-fault diagnosis hit rate %d/%d", hits, trials)
	}
}

func TestResolution(t *testing.T) {
	d, faults := buildDict(t)
	classes, largest := d.Resolution()
	if classes < 2 || classes > len(faults) {
		t.Errorf("classes = %d", classes)
	}
	if largest < 1 {
		t.Errorf("largest = %d", largest)
	}
	// With a near-complete random set, most faults should be
	// distinguishable: classes close to the fault count.
	if float64(classes) < 0.5*float64(len(faults)) {
		t.Errorf("resolution too poor: %d classes for %d faults", classes, len(faults))
	}
}

func TestDiagnoseLimitExpansion(t *testing.T) {
	d, _ := buildDict(t)
	// Diagnosing an all-pass syndrome: every undetected fault matches
	// at distance 0 and the limit must expand to include them all.
	syn := make(Syndrome, 96)
	cands := d.Diagnose(syn, 1)
	for i := 1; i < len(cands); i++ {
		if cands[i].Distance == 0 && cands[i-1].Distance != 0 {
			t.Fatal("exact matches not contiguous at front")
		}
	}
	if len(cands) >= 1 && cands[0].Distance == 0 {
		// All leading zero-distance candidates kept.
		last := 0
		for last < len(cands) && cands[last].Distance == 0 {
			last++
		}
		if last < 1 {
			t.Error("limit expansion failed")
		}
	}
}

func BenchmarkDictionaryBuild(b *testing.B) {
	c, err := netlist.RippleAdder(4)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, _ := atpg.NewRandomSource(len(c.Inputs), 5)
	patterns := atpg.Take(src, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, faults, patterns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiagnose(b *testing.B) {
	c, err := netlist.RippleAdder(4)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, _ := atpg.NewRandomSource(len(c.Inputs), 5)
	patterns := atpg.Take(src, 96)
	d, err := Build(c, faults, patterns)
	if err != nil {
		b.Fatal(err)
	}
	f := faults[7]
	syn, err := d.ObserveChip([]logicsim.Injection{{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Diagnose(syn, 5)
	}
}
