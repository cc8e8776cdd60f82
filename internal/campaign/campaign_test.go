package campaign

import (
	"math"
	"math/rand"
	"testing"
)

func TestLayout(t *testing.T) {
	l := Layout{Cells: 3, Replicates: 4}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Tasks() != 12 {
		t.Fatalf("tasks = %d", l.Tasks())
	}
	for task := 0; task < l.Tasks(); task++ {
		cell, rep := l.CellOf(task), l.RepOf(task)
		if cell != task/4 || rep != task%4 {
			t.Fatalf("task %d -> (%d,%d)", task, cell, rep)
		}
		if l.Task(cell, rep) != task {
			t.Fatalf("Task(%d,%d) != %d", cell, rep, task)
		}
	}
	for _, bad := range []Layout{{0, 4}, {3, 0}, {-1, 4}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("layout %+v accepted", bad)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"0/2": {0, 2},
		"2/3": {2, 3},
		"7/8": {7, 8},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v", in, got, err)
		}
		if got.String() != in {
			t.Errorf("round trip %q -> %q", in, got.String())
		}
	}
	for _, in := range []string{"", "3", "1/2/3", "a/b", "0/0", "2/2", "3/2", "-1/4", "1/-1"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

func TestShardsPartitionTasks(t *testing.T) {
	// For every n, the shards 0..n-1 own each task exactly once.
	for _, n := range []int{1, 2, 3, 8} {
		for task := 0; task < 100; task++ {
			owners := 0
			for i := 0; i < n; i++ {
				if (Shard{Index: i, Count: n}).Owns(task) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d task %d has %d owners", n, task, owners)
			}
		}
	}
}

func TestWelfordStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w Welford
	for i := 0; i < 137; i++ {
		w.Add(rng.NormFloat64()*1e-3 + 0.01)
	}
	r := FromState(w.State())
	// Bit-exact restoration, then bit-exact continued folding.
	if r != w {
		t.Fatalf("restored %+v, want %+v", r, w)
	}
	for i := 0; i < 50; i++ {
		x := rng.ExpFloat64()
		w.Add(x)
		r.Add(x)
	}
	if r != w {
		t.Fatalf("diverged after continued folding: %+v vs %+v", r, w)
	}
	lo1, hi1 := w.CI95()
	lo2, hi2 := r.CI95()
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("CI bounds differ after round trip")
	}
}

func TestWelfordStateValidate(t *testing.T) {
	bad := []WelfordState{
		{N: -1},
		{N: 2, Mean: math.NaN()},
		{N: 2, Mean: 1, M2: math.Inf(1)},
		{N: 2, Mean: 1, M2: -0.5},
		{N: 0, Mean: 1},
	}
	for _, st := range bad {
		if err := st.validate(); err == nil {
			t.Errorf("state %+v accepted", st)
		}
	}
	if err := (WelfordState{N: 3, Mean: 0.5, M2: 0.25}).validate(); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

func TestWelford(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2.5 + 10
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	// Against the naive two-pass computation.
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	wantVar := varSum / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("mean %v vs %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-wantVar) > 1e-9 {
		t.Errorf("variance %v vs %v", w.Variance(), wantVar)
	}
	lo, hi := w.CI95()
	if !(lo < mean && mean < hi) {
		t.Errorf("CI [%v, %v] excludes mean %v", lo, hi, mean)
	}
	// Degenerate cases.
	var one Welford
	one.Add(5)
	if one.Variance() != 0 || one.StdErr() != 0 {
		t.Error("single observation should have zero variance")
	}
	lo, hi = one.CI95()
	if lo != 5 || hi != 5 {
		t.Errorf("single-observation CI [%v, %v]", lo, hi)
	}
}
