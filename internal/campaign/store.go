package campaign

import (
	"fmt"
	"sync"
)

// CellSnapshot is one cell's folded aggregate state: the watermark of
// replicates folded so far plus every Welford accumulator. It is both
// the checkpoint unit and the streaming unit — a daemon publishes a
// cell's snapshot every time its watermark advances, and a checkpoint
// is just every cell's snapshot plus the campaign key.
type CellSnapshot struct {
	// Done is the completed-replicate watermark: replicates 0..Done-1
	// are folded into the accumulators below. Replicates at or beyond
	// the watermark must be re-run on resume (finished-but-out-of-order
	// work is deliberately not persisted — re-running it is free and
	// deterministic, persisting it is schema surface).
	Done int `json:"done"`
	// Rej, Esc, and Pass hold one accumulator per coverage cut. Rej
	// only counts replicates that shipped at least one chip, so its N
	// is the RejSamples of the final report.
	Rej  []WelfordState `json:"rej"`
	Esc  []WelfordState `json:"esc"`
	Pass []WelfordState `json:"pass"`
	// Whole-program lot statistics.
	TestedYield WelfordState `json:"tested_yield"`
	LotYield    WelfordState `json:"lot_yield"`
	TrueN0      WelfordState `json:"true_n0"`
	// FitN0 only counts replicates whose Fig. 5 fit converged.
	FitN0 WelfordState `json:"fit_n0"`
}

// validate checks a snapshot's shape against the campaign geometry.
func (cs CellSnapshot) validate(layout Layout, cuts int) error {
	if cs.Done < 0 || cs.Done > layout.Replicates {
		return fmt.Errorf("campaign: cell watermark %d outside [0,%d]", cs.Done, layout.Replicates)
	}
	if len(cs.Rej) != cuts || len(cs.Esc) != cuts || len(cs.Pass) != cuts {
		return fmt.Errorf("campaign: cell has %d/%d/%d cut accumulators, campaign has %d cuts",
			len(cs.Rej), len(cs.Esc), len(cs.Pass), cuts)
	}
	for _, group := range [][]WelfordState{cs.Rej, cs.Esc, cs.Pass} {
		for _, ws := range group {
			if err := ws.validate(); err != nil {
				return err
			}
		}
	}
	for _, ws := range []WelfordState{cs.TestedYield, cs.LotYield, cs.TrueN0, cs.FitN0} {
		if err := ws.validate(); err != nil {
			return err
		}
	}
	return nil
}

// cellAccum is one cell's live accumulators plus the out-of-order
// buffer. Folding happens strictly in replicate-index order: a summary
// arriving ahead of the watermark waits in pending until its turn.
type cellAccum struct {
	rej, esc, pass []Welford
	ty, ly, tn, ft Welford
	done           int
	pending        map[int]Summary
}

func newCellAccum(cuts int) *cellAccum {
	return &cellAccum{
		rej:     make([]Welford, cuts),
		esc:     make([]Welford, cuts),
		pass:    make([]Welford, cuts),
		pending: map[int]Summary{},
	}
}

// fold is the one place a summary enters the statistics; its operation
// order is pinned by the golden sweep CSV.
func (a *cellAccum) fold(s Summary) {
	for j := range a.rej {
		// A lot that ships nothing has no reject rate; exclude it from
		// the mean/CI rather than recording a biasing zero.
		if s.Passed[j] > 0 {
			a.rej[j].Add(float64(s.Escapes[j]) / float64(s.Passed[j]))
		}
		a.esc[j].Add(float64(s.Escapes[j]))
		a.pass[j].Add(float64(s.Passed[j]))
	}
	a.ty.Add(s.TestedYield)
	a.ly.Add(s.LotYield)
	a.tn.Add(s.TrueN0)
	if s.FitOK {
		a.ft.Add(s.FitN0)
	}
	a.done++
}

func (a *cellAccum) snapshot() CellSnapshot {
	cs := CellSnapshot{
		Done:        a.done,
		Rej:         make([]WelfordState, len(a.rej)),
		Esc:         make([]WelfordState, len(a.esc)),
		Pass:        make([]WelfordState, len(a.pass)),
		TestedYield: a.ty.State(),
		LotYield:    a.ly.State(),
		TrueN0:      a.tn.State(),
		FitN0:       a.ft.State(),
	}
	for j := range a.rej {
		cs.Rej[j] = a.rej[j].State()
		cs.Esc[j] = a.esc[j].State()
		cs.Pass[j] = a.pass[j].State()
	}
	return cs
}

func (a *cellAccum) restore(cs CellSnapshot) {
	for j := range a.rej {
		a.rej[j] = FromState(cs.Rej[j])
		a.esc[j] = FromState(cs.Esc[j])
		a.pass[j] = FromState(cs.Pass[j])
	}
	a.ty = FromState(cs.TestedYield)
	a.ly = FromState(cs.LotYield)
	a.tn = FromState(cs.TrueN0)
	a.ft = FromState(cs.FitN0)
	a.done = cs.Done
	clear(a.pending)
}

// Store is the CellID -> Welford result store: it accepts per-replicate
// summaries in any order (workers finish when they finish) and folds
// each cell's stream strictly in replicate-index order, so the folded
// state — and therefore every checkpoint, every streamed snapshot, and
// the final report — is bit-identical to a serial run's. Safe for
// concurrent Add.
type Store struct {
	mu     sync.Mutex
	layout Layout
	cuts   int
	cells  []*cellAccum
	folded int

	// OnAdvance, when set before the first Add, is called under the
	// store lock every time a cell's watermark advances, with a copy of
	// the cell's new snapshot. Calls are strictly ordered per cell
	// (done only ever grows by the reported amount); keep the callback
	// fast and never let it re-enter the store.
	OnAdvance func(cell int, snap CellSnapshot)
}

// NewStore builds an empty store for the given geometry.
func NewStore(layout Layout, cuts int) (*Store, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if cuts < 1 {
		return nil, fmt.Errorf("campaign: store needs at least one coverage cut, got %d", cuts)
	}
	st := &Store{layout: layout, cuts: cuts, cells: make([]*cellAccum, layout.Cells)}
	for i := range st.cells {
		st.cells[i] = newCellAccum(cuts)
	}
	return st, nil
}

// Layout returns the store's task geometry.
func (st *Store) Layout() Layout { return st.layout }

// Add feeds one completed task's summary. It buffers out-of-order
// arrivals and folds every ready replicate in index order, returning
// the task's cell and that cell's new watermark.
func (st *Store) Add(task int, s Summary) (cell, done int, err error) {
	if task < 0 || task >= st.layout.Tasks() {
		return 0, 0, fmt.Errorf("campaign: task %d outside [0,%d)", task, st.layout.Tasks())
	}
	if err := s.validate(st.cuts); err != nil {
		return 0, 0, err
	}
	cell = st.layout.CellOf(task)
	rep := st.layout.RepOf(task)
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.cells[cell]
	if rep < a.done {
		return 0, 0, fmt.Errorf("campaign: task %d (cell %d rep %d) already folded (watermark %d)",
			task, cell, rep, a.done)
	}
	if _, dup := a.pending[rep]; dup {
		return 0, 0, fmt.Errorf("campaign: task %d (cell %d rep %d) already buffered", task, cell, rep)
	}
	a.pending[rep] = s
	advanced := false
	for {
		next, ok := a.pending[a.done]
		if !ok {
			break
		}
		delete(a.pending, a.done)
		a.fold(next)
		st.folded++
		advanced = true
	}
	if advanced && st.OnAdvance != nil {
		st.OnAdvance(cell, a.snapshot())
	}
	return cell, a.done, nil
}

// Done returns a cell's completed-replicate watermark.
func (st *Store) Done(cell int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cells[cell].done
}

// TasksFolded returns the total folded-replicate count across cells.
func (st *Store) TasksFolded() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.folded
}

// Complete reports whether every cell's watermark reached Replicates.
func (st *Store) Complete() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.folded == st.layout.Tasks()
}

// Snapshot copies every cell's folded state — the checkpoint payload.
func (st *Store) Snapshot() []CellSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]CellSnapshot, len(st.cells))
	for i, a := range st.cells {
		out[i] = a.snapshot()
	}
	return out
}

// Restore overwrites the store with a checkpoint's cell states. The
// snapshot must match the store's geometry exactly.
func (st *Store) Restore(cells []CellSnapshot) error {
	if len(cells) != st.layout.Cells {
		return fmt.Errorf("campaign: snapshot has %d cells, campaign has %d", len(cells), st.layout.Cells)
	}
	for i, cs := range cells {
		if err := cs.validate(st.layout, st.cuts); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.folded = 0
	for i, cs := range cells {
		st.cells[i].restore(cs)
		st.folded += cs.Done
	}
	return nil
}
