package logicsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

func TestCarryLookaheadAdderAdds(t *testing.T) {
	const w = 5
	c, err := netlist.CarryLookaheadAdder(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<w; a += 3 {
		for b := 0; b < 1<<w; b += 5 {
			for cin := 0; cin < 2; cin++ {
				p := make(logicsim.Pattern, 0, 2*w+1)
				for i := 0; i < w; i++ {
					p = append(p, a>>i&1 == 1, b>>i&1 == 1)
				}
				p = append(p, cin == 1)
				out, err := sim.RunSingle(p)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for i := 0; i <= w; i++ {
					if out[i] {
						got |= 1 << i
					}
				}
				if want := a + b + cin; got != want {
					t.Fatalf("CLA %d+%d+%d = %d, got %d", a, b, cin, want, got)
				}
			}
		}
	}
}

func TestCLAMatchesRipple(t *testing.T) {
	// Same function, different structure: CLA and ripple adder must
	// agree on random inputs.
	const w = 8
	cla, err := netlist.CarryLookaheadAdder(w)
	if err != nil {
		t.Fatal(err)
	}
	rca, err := netlist.RippleAdder(w)
	if err != nil {
		t.Fatal(err)
	}
	simC, _ := ref.NewSimulator(cla)
	simR, _ := ref.NewSimulator(rca)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		p := make(logicsim.Pattern, 2*w+1)
		for i := range p {
			p[i] = rng.Intn(2) == 1
		}
		oc, err := simC.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		or, err := simR.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range oc {
			if oc[i] != or[i] {
				t.Fatalf("trial %d output %d: CLA %v ripple %v", trial, i, oc[i], or[i])
			}
		}
	}
	// CLA must be shallower.
	dc, _ := cla.Depth()
	dr, _ := rca.Depth()
	if dc >= dr {
		t.Errorf("CLA depth %d should be below ripple depth %d", dc, dr)
	}
}

func TestALUSliceOperations(t *testing.T) {
	const w = 4
	c, err := netlist.ALUSlice(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<w; a++ {
		for b := 0; b < 1<<w; b++ {
			for op := 0; op < 4; op++ {
				p := make(logicsim.Pattern, 0, 2*w+2)
				for i := 0; i < w; i++ {
					p = append(p, a>>i&1 == 1, b>>i&1 == 1)
				}
				p = append(p, op&1 == 1, op>>1&1 == 1) // op0, op1
				out, err := sim.RunSingle(p)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for i := 0; i < w; i++ {
					if out[i] {
						got |= 1 << i
					}
				}
				cout := out[w]
				var want int
				wantCout := false
				switch op {
				case 0:
					want = a & b
				case 1:
					want = a | b
				case 2:
					want = a ^ b
				case 3:
					sum := a + b
					want = sum & (1<<w - 1)
					wantCout = sum>>w&1 == 1
				}
				if got != want || cout != wantCout {
					t.Fatalf("ALU op=%d a=%d b=%d: got %d cout=%v, want %d cout=%v",
						op, a, b, got, cout, want, wantCout)
				}
			}
		}
	}
}

func TestBarrelShifterShifts(t *testing.T) {
	const stages = 4
	c, err := netlist.BarrelShifter(stages)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << stages
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		data := rng.Intn(1 << n)
		shift := rng.Intn(n)
		p := make(logicsim.Pattern, 0, n+stages)
		for i := 0; i < n; i++ {
			p = append(p, data>>i&1 == 1)
		}
		for s := 0; s < stages; s++ {
			p = append(p, shift>>s&1 == 1)
		}
		out, err := sim.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for i := range out {
			if out[i] {
				got |= 1 << i
			}
		}
		want := data << shift & (1<<n - 1)
		if got != want {
			t.Fatalf("shift %016b << %d: got %016b want %016b", data, shift, got, want)
		}
	}
}

func TestDatapathReference(t *testing.T) {
	const w = 3
	c, err := netlist.Datapath(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	mask := 1<<w - 1
	for x := 0; x <= mask; x++ {
		for y := 0; y <= mask; y++ {
			for z := 0; z <= mask; z++ {
				for op := 0; op < 4; op++ {
					p := make(logicsim.Pattern, 0, 3*w+2)
					for i := 0; i < w; i++ {
						p = append(p, x>>i&1 == 1)
					}
					for i := 0; i < w; i++ {
						p = append(p, y>>i&1 == 1)
					}
					for i := 0; i < w; i++ {
						p = append(p, z>>i&1 == 1)
					}
					p = append(p, op&1 == 1, op>>1&1 == 1)
					out, err := sim.RunSingle(p)
					if err != nil {
						t.Fatal(err)
					}
					prod := x * y
					a := prod & mask
					var want int
					switch op {
					case 0:
						want = a & z
					case 1:
						want = a | z
					case 2:
						want = a ^ z
					case 3:
						want = (a + z) & mask
					}
					got := 0
					for i := 0; i < w; i++ {
						if out[i] {
							got |= 1 << i
						}
					}
					if got != want {
						t.Fatalf("datapath x=%d y=%d z=%d op=%d: result %d, want %d",
							x, y, z, op, got, want)
					}
					// High product word.
					gotHigh := 0
					for i := 0; i < w; i++ {
						if out[w+i] {
							gotHigh |= 1 << i
						}
					}
					if wantHigh := prod >> w & mask; gotHigh != wantHigh {
						t.Fatalf("datapath high word: %d, want %d", gotHigh, wantHigh)
					}
					// Parity output.
					parity := false
					for i := 0; i < w; i++ {
						if want>>i&1 == 1 {
							parity = !parity
						}
					}
					if out[len(out)-1] != parity {
						t.Fatalf("datapath parity wrong")
					}
				}
			}
		}
	}
}
