package atpg

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/logicsim"
)

// speculation runs PODEM ahead of CleanupTestsBudget's commit loop: each
// worker owns a Podem and claims the next target fault that is still
// undetected, while at most window claimed results wait for the
// committer. The committer takes results strictly in fault-list order;
// a claimed fault that an earlier committed pattern dropped in the
// meantime is discarded unread. Generate is a pure function of the
// circuit, the fault and the budget, so every result the committer
// reads is the one a serial loop would have computed, whichever worker
// computed it and whenever.
type speculation struct {
	reps []fault.Fault

	mu   sync.Mutex
	cond sync.Cond // signalled on every result, commit and stop
	// detected is the committer's drop state; it writes it under mu, and
	// workers read it under mu when claiming.
	detected []bool
	res      []specResult
	next     int // lowest fault index no worker has claimed or passed
	ahead    int // claimed faults the committer has not reached yet
	window   int
	stopped  bool
	// discarded counts claimed faults the committer threw away because
	// an earlier pattern dropped them.
	discarded int

	wg sync.WaitGroup
}

// specResult is one target's PODEM outcome as a worker left it.
type specResult struct {
	state   specState
	pattern logicsim.Pattern
	status  Status
}

type specState uint8

const (
	unclaimed specState = iota
	running
	done
)

// speculate starts one worker per generator over the target list.
// detected is the committer's drop state, which the speculation then
// owns for writing: the committer reads it freely and updates it through
// drop. The generators must be built before this call, since NewPodem
// reads circuit caches that workers must not race on.
func speculate(gens []*Podem, reps []fault.Fault, detected []bool) *speculation {
	s := &speculation{
		reps:     reps,
		detected: detected,
		res:      make([]specResult, len(reps)),
		window:   2 * len(gens),
	}
	s.cond.L = &s.mu
	s.wg.Add(len(gens))
	for _, gen := range gens {
		go s.work(gen)
	}
	return s
}

// work claims and generates targets until the list runs out or the
// speculation stops.
func (s *speculation) work(gen *Podem) {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.stopped && s.ahead >= s.window {
			s.cond.Wait()
		}
		for s.next < len(s.reps) && s.detected[s.next] {
			s.next++
		}
		if s.stopped || s.next == len(s.reps) {
			return
		}
		fi := s.next
		s.next++
		s.ahead++
		s.res[fi].state = running
		s.mu.Unlock()
		pattern, status := gen.Generate(s.reps[fi])
		s.mu.Lock()
		s.res[fi] = specResult{state: done, pattern: pattern, status: status}
		s.cond.Broadcast()
	}
}

// result waits for undetected fault fi's PODEM outcome and commits to
// it, freeing its place in the window.
func (s *speculation) result(fi int) (logicsim.Pattern, Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.res[fi].state != done {
		s.cond.Wait()
	}
	r := s.res[fi]
	s.res[fi] = specResult{}
	s.ahead--
	s.cond.Broadcast()
	return r.pattern, r.status
}

// skip passes dropped fault fi, discarding a speculative result for it
// if a worker claimed it before the drop.
func (s *speculation) skip(fi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res[fi].state == unclaimed {
		return
	}
	s.res[fi] = specResult{}
	s.discarded++
	s.ahead--
	s.cond.Broadcast()
}

// drop marks the faults at the given target indices detected, so no
// worker claims them from now on.
func (s *speculation) drop(idx []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fi := range idx {
		s.detected[fi] = true
	}
}

// stop ends the speculation and joins every worker; a worker inside
// Generate finishes that target first.
func (s *speculation) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
