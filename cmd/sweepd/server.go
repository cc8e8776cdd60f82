package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/sweep"
)

// submitRequest is the wire form of a campaign config. Scheduling knobs
// are accepted but do not enter the campaign's identity (see sweep
// fingerprinting). There is no engine field: the decoder rejects
// unknown fields, so a body naming one gets a 400.
type submitRequest struct {
	Circuits       []string  `json:"circuits"`
	Yields         []float64 `json:"yields"`
	N0s            []float64 `json:"n0s"`
	LotSizes       []int     `json:"lot_sizes"`
	Coverages      []float64 `json:"coverages"`
	Replicates     int       `json:"replicates"`
	Workers        int       `json:"workers"`
	RandomPatterns int       `json:"random_patterns"`
	Seed           int64     `json:"seed"`
	Physical       bool      `json:"physical"`
	SimWorkers     int       `json:"sim_workers"`
	BacktrackLimit int       `json:"backtrack_limit"`
	SampleFaults   int       `json:"sample_faults"`
}

func (r submitRequest) config(cache *circuits.Cache) sweep.Config {
	return sweep.Config{
		Circuits:       r.Circuits,
		Cache:          cache,
		Yields:         r.Yields,
		N0s:            r.N0s,
		LotSizes:       r.LotSizes,
		Coverages:      r.Coverages,
		Replicates:     r.Replicates,
		Workers:        r.Workers,
		RandomPatterns: r.RandomPatterns,
		Seed:           r.Seed,
		Physical:       r.Physical,
		SimWorkers:     r.SimWorkers,
		BacktrackLimit: r.BacktrackLimit,
		SampleFaults:   r.SampleFaults,
	}
}

// jobState is a campaign's lifecycle phase as reported by GET
// /campaigns/{id}.
type jobState string

const (
	statePreparing   jobState = "preparing" // ATPG + good-machine prep
	stateRunning     jobState = "running"
	stateDone        jobState = "done"
	stateFailed      jobState = "failed"
	stateInterrupted jobState = "interrupted" // shutdown drained it; resubmit resumes
)

// cellEvent is one line of the NDJSON incremental-results stream: a
// cell's folded watermark advanced, and these are its new aggregates.
// Clients watch ci_lo/ci_hi tighten as done grows.
type cellEvent struct {
	Cell       int          `json:"cell"`
	Circuit    string       `json:"circuit"`
	Yield      float64      `json:"yield"`
	N0         float64      `json:"n0"`
	Done       int          `json:"done"`
	Replicates int          `json:"replicates"`
	Points     []pointEvent `json:"points"`
}

type pointEvent struct {
	Coverage float64 `json:"coverage"`
	Count    int     `json:"count"`
	MeanR    float64 `json:"mean_r"`
	CILow    float64 `json:"ci_lo"`
	CIHigh   float64 `json:"ci_hi"`
}

// job is one submitted campaign and its live state. The runner
// goroutine owns the sweep; everything the handlers read is mirrored
// here under mu.
type job struct {
	id          string
	fingerprint string
	cfg         sweep.Config
	resumed     bool

	interrupt chan struct{}
	intOnce   sync.Once
	finished  chan struct{} // closed on any terminal state

	mu      sync.Mutex
	state   jobState
	errMsg  string
	done    int
	total   int
	sweeper *sweep.Sweeper
	cells   []sweep.CellInfo
	snaps   []campaign.CellSnapshot
	result  *sweep.Result
	shard   *campaign.ShardResult
	subs    map[chan cellEvent]struct{}
}

func (j *job) stop() { j.intOnce.Do(func() { close(j.interrupt) }) }

// publish mirrors a cell's new snapshot and fans the event out to
// stream subscribers. Sends never block: a slow client drops events and
// catches up from the replay on reconnect.
func (j *job) publish(cell int, snap campaign.CellSnapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.snaps[cell] = snap
	ev := j.eventLocked(cell)
	//repolint:ordered — fan-out to subscriber channels; delivery order between watchers is not part of any result
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (j *job) eventLocked(cell int) cellEvent {
	snap := j.snaps[cell]
	info := j.cells[cell]
	ev := cellEvent{
		Cell:       cell,
		Circuit:    info.Circuit,
		Yield:      info.Yield,
		N0:         info.N0,
		Done:       snap.Done,
		Replicates: j.cfg.Replicates,
	}
	for i, ws := range snap.Rej {
		w := campaign.FromState(ws)
		lo, hi := w.CI95()
		ev.Points = append(ev.Points, pointEvent{
			Coverage: j.cfg.Coverages[i],
			Count:    w.Count(),
			MeanR:    w.Mean(),
			CILow:    math.Max(0, lo),
			CIHigh:   math.Min(1, hi),
		})
	}
	return ev
}

// subscribe registers a stream client: the returned replay holds one
// event per cell that has any folded work (current state as of now),
// and ch receives every later advance.
func (j *job) subscribe() (replay []cellEvent, ch chan cellEvent) {
	ch = make(chan cellEvent, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	for cell := range j.snaps {
		if j.snaps[cell].Done > 0 {
			replay = append(replay, j.eventLocked(cell))
		}
	}
	j.subs[ch] = struct{}{}
	return replay, ch
}

func (j *job) unsubscribe(ch chan cellEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// statusResponse is the GET /campaigns/{id} body.
type statusResponse struct {
	ID          string       `json:"id"`
	State       jobState     `json:"state"`
	Fingerprint string       `json:"fingerprint"`
	Resumed     bool         `json:"resumed"`
	Shard       string       `json:"shard,omitempty"`
	TasksDone   int          `json:"tasks_done"`
	TasksTotal  int          `json:"tasks_total"`
	Cells       []cellStatus `json:"cells,omitempty"`
	Error       string       `json:"error,omitempty"`
}

type cellStatus struct {
	Circuit string  `json:"circuit"`
	Yield   float64 `json:"yield"`
	N0      float64 `json:"n0"`
	Chips   int     `json:"chips"`
	Done    int     `json:"done"`
}

// server is the sweepd HTTP daemon: submitted campaigns run in
// background goroutines, checkpoint into ckptDir keyed by config
// fingerprint (so resubmitting a config resumes it), and publish
// incremental results as cells advance.
type server struct {
	mux     *http.ServeMux
	cache   *circuits.Cache
	ckptDir string
	shard   campaign.Shard
	// ckptEvery is the periodic checkpoint cadence in folded tasks, on
	// top of the always-on cell-completion checkpoints. Without it, a
	// crash mid-way through a long cell would lose the whole cell.
	ckptEvery int

	mu            sync.Mutex
	jobs          map[string]*job
	byFingerprint map[string]*job
	nextID        int
	stopping      bool
	wg            sync.WaitGroup
}

func newServer(ckptDir string, shard campaign.Shard, ckptEvery int, preparedDir string) (*server, error) {
	cache := circuits.NewCache()
	if preparedDir != "" {
		store, err := circuits.NewStore(preparedDir)
		if err != nil {
			return nil, err
		}
		cache = circuits.NewCacheWithStore(store)
	}
	s := &server{
		mux:           http.NewServeMux(),
		cache:         cache,
		ckptDir:       ckptDir,
		shard:         shard,
		ckptEvery:     ckptEvery,
		jobs:          map[string]*job{},
		byFingerprint: map[string]*job{},
	}
	s.mux.HandleFunc("POST /campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /campaigns", s.handleList)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /campaigns/{id}/shard", s.handleShard)
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// sharded reports whether this daemon computes a partial shard rather
// than whole campaigns.
func (s *server) sharded() bool { return s.shard != campaign.FullShard }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// maxSubmitBytes caps a submit body. A real campaign config is a few
// hundred bytes; the cap keeps one hostile client from making the
// daemon buffer an unbounded body.
const maxSubmitBytes = 1 << 20

// decodeSubmit decodes one submit body, rejecting unknown fields.
func decodeSubmit(body io.Reader) (submitRequest, error) {
	var req submitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "config body over %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "malformed config: %v", err)
		return
	}
	cfg := req.config(s.cache)
	if err := cfg.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return
	}
	// Submitting a config already known to this daemon is idempotent:
	// the same job answers, whatever its state short of failure. A
	// failed or interrupted job gets a fresh runner, which resumes from
	// the fingerprint-named checkpoint.
	if j, ok := s.byFingerprint[fp]; ok {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st != stateFailed && st != stateInterrupted {
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, s.status(j))
			return
		}
	}
	s.nextID++
	j := &job{
		id:          fmt.Sprintf("c%d", s.nextID),
		fingerprint: fp,
		cfg:         cfg,
		interrupt:   make(chan struct{}),
		finished:    make(chan struct{}),
		state:       statePreparing,
		subs:        map[chan cellEvent]struct{}{},
	}
	s.jobs[j.id] = j
	s.byFingerprint[fp] = j
	s.wg.Add(1)
	s.mu.Unlock()

	go s.run(j)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// run is the job's background runner: it drives the campaign and
// records how it ended.
func (s *server) run(j *job) {
	defer s.wg.Done()
	defer close(j.finished)
	res, sr, err := s.runCampaign(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case errors.Is(err, sweep.ErrInterrupted):
		j.state = stateInterrupted
	case err != nil:
		j.state, j.errMsg = stateFailed, err.Error()
	default:
		j.state, j.result, j.shard = stateDone, res, sr
	}
}

// runCampaign prepares the job's circuits, then runs the daemon's share of
// the campaign — the whole of it, or its shard — with resume-or-start
// durability against the daemon's checkpoint directory.
func (s *server) runCampaign(j *job) (*sweep.Result, *campaign.ShardResult, error) {
	sw, err := sweep.New(j.cfg)
	if err != nil {
		return nil, nil, err
	}
	layout := sw.Layout()
	empty, err := campaign.NewStore(layout, len(j.cfg.Coverages))
	if err != nil {
		return nil, nil, err
	}
	ckpt := filepath.Join(s.ckptDir, j.fingerprint+s.checkpointSuffix())
	_, statErr := os.Stat(ckpt)

	j.mu.Lock()
	j.resumed = statErr == nil
	j.sweeper = sw
	j.cells = sw.Cells()
	j.snaps = empty.Snapshot()
	j.total = layout.Tasks()
	j.state = stateRunning
	j.mu.Unlock()

	opts := sweep.RunOptions{
		Checkpoint:      ckpt,
		Resume:          true,
		CheckpointEvery: s.ckptEvery,
		OnCellUpdate:    j.publish,
		OnProgress: func(done, total int) {
			j.mu.Lock()
			j.done, j.total = done, total
			j.mu.Unlock()
		},
		Interrupt: j.interrupt,
	}
	if s.sharded() {
		sr, err := sw.RunShard(s.shard, opts)
		return nil, sr, err
	}
	res, err := sw.RunWith(opts)
	return res, nil, err
}

func (s *server) checkpointSuffix() string {
	if s.sharded() {
		return fmt.Sprintf(".shard-%d-of-%d", s.shard.Index, s.shard.Count)
	}
	return ".ckpt"
}

// status snapshots a job for the wire. Resumed reports whether a
// fingerprint-named checkpoint predated the job's runner.
func (s *server) status(j *job) statusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := statusResponse{
		ID:          j.id,
		State:       j.state,
		Fingerprint: j.fingerprint,
		Resumed:     j.resumed,
		TasksDone:   j.done,
		TasksTotal:  j.total,
		Error:       j.errMsg,
	}
	if s.sharded() {
		resp.Shard = s.shard.String()
	}
	for i, c := range j.cells {
		resp.Cells = append(resp.Cells, cellStatus{
			Circuit: c.Circuit,
			Yield:   c.Yield,
			N0:      c.N0,
			Chips:   c.Chips,
			Done:    j.snaps[i].Done,
		})
	}
	return resp
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return nil
	}
	return j
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	//repolint:ordered — collection only; the response is sorted by job ID below
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]statusResponse, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	// Stable order for humans and tests.
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, s.status(j))
	}
}

// handleResults renders the campaign report — partial while running
// (each cell at its current watermark), final when done. Sharded
// daemons have no whole-campaign results; their output is /shard.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if s.sharded() {
		httpError(w, http.StatusConflict, "sharded daemon (%s): fetch /campaigns/%s/shard and merge", s.shard, j.id)
		return
	}
	j.mu.Lock()
	res := j.result
	sw := j.sweeper
	var snaps []campaign.CellSnapshot
	if res == nil && sw != nil {
		snaps = append(snaps, j.snaps...)
	}
	st := j.state
	errMsg := j.errMsg
	j.mu.Unlock()
	if res == nil {
		if st == stateFailed {
			httpError(w, http.StatusConflict, "campaign failed: %s", errMsg)
			return
		}
		if sw == nil {
			httpError(w, http.StatusConflict, "campaign still preparing, no results yet")
			return
		}
		var err error
		res, err = sw.ResultFrom(snaps)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, res.CSV())
	case "json":
		out, err := res.JSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, out)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want csv or json)", format)
	}
}

// handleStream serves the NDJSON incremental-results stream: first a
// replay of every cell that has folded work, then one line per
// watermark advance until the campaign reaches a terminal state or the
// client goes away.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if s.sharded() {
		httpError(w, http.StatusConflict, "sharded daemon (%s) does not stream whole-campaign results", s.shard)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	replay, ch := j.subscribe()
	defer j.unsubscribe(ch)
	for _, ev := range replay {
		enc.Encode(ev)
	}
	flusher.Flush()
	for {
		select {
		case ev := <-ch:
			enc.Encode(ev)
			flusher.Flush()
		case <-j.finished:
			// Drain whatever the runner published before finishing.
			for {
				select {
				case ev := <-ch:
					enc.Encode(ev)
				default:
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleShard serves a sharded daemon's finished partial result — the
// raw per-replicate summaries cmd/sweep -merge folds with the other
// shards into the serial bytes.
func (s *server) handleShard(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if !s.sharded() {
		httpError(w, http.StatusConflict, "not a sharded daemon: fetch /campaigns/%s/results", j.id)
		return
	}
	j.mu.Lock()
	sr := j.shard
	st := j.state
	errMsg := j.errMsg
	j.mu.Unlock()
	if sr == nil {
		if st == stateFailed {
			httpError(w, http.StatusConflict, "campaign failed: %s", errMsg)
			return
		}
		httpError(w, http.StatusConflict, "shard not finished (state %s)", st)
		return
	}
	writeJSON(w, http.StatusOK, sr)
}

// beginShutdown starts the graceful drain: new submissions get 503,
// every running job's interrupt fires (in-flight replicates finish and
// the checkpoint is written), and the call returns when all runners
// have exited. The HTTP listener is shut down by the caller afterwards.
func (s *server) beginShutdown() {
	s.mu.Lock()
	s.stopping = true
	jobs := make([]*job, 0, len(s.jobs))
	//repolint:ordered — each job checkpoints into its own directory; stop order is immaterial
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.stop()
	}
	s.wg.Wait()
}
