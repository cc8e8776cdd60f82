package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep"
)

// testBody is the wire config every handler test submits: the same
// two-circuit, 2-cell x 3-replicate campaign the sweep durability
// tests kill and resume.
func testBody() []byte {
	return []byte(`{
		"circuits": ["mul4", "cmp8"],
		"yields": [0.25],
		"n0s": [3],
		"lot_sizes": [60],
		"coverages": [0.3, 0.6],
		"replicates": 3,
		"workers": 2,
		"random_patterns": 32,
		"seed": 19
	}`)
}

func testConfig() sweep.Config {
	return sweep.Config{
		Circuits:       []string{"mul4", "cmp8"},
		Yields:         []float64{0.25},
		N0s:            []float64{3},
		LotSizes:       []int{60},
		Coverages:      []float64{0.3, 0.6},
		Replicates:     3,
		Workers:        2,
		RandomPatterns: 32,
		Seed:           19,
	}
}

// goldenCSV runs the campaign in process — the bytes every daemon path
// must reproduce.
func goldenCSV(t *testing.T) string {
	t.Helper()
	res, err := sweep.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.CSV()
}

func submit(t *testing.T, ts *httptest.Server, body []byte) statusResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want jobState) statusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == stateFailed && want != stateFailed {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, want)
	return statusResponse{}
}

func newTestServer(t *testing.T, dir string, sh campaign.Shard) *server {
	t.Helper()
	srv, err := newServer(dir, sh, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

func TestSubmitStatusResults(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), campaign.FullShard)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, testBody())
	if st.ID == "" || (st.State != statePreparing && st.State != stateRunning) {
		t.Fatalf("submit returned %+v", st)
	}
	final := waitState(t, ts, st.ID, stateDone)
	if final.TasksDone != final.TasksTotal || final.TasksTotal != 6 {
		t.Fatalf("done campaign reports %d/%d tasks", final.TasksDone, final.TasksTotal)
	}
	if len(final.Cells) != 2 {
		t.Fatalf("status lists %d cells, want 2", len(final.Cells))
	}
	for _, c := range final.Cells {
		if c.Done != 3 {
			t.Fatalf("cell %s done=%d, want 3", c.Circuit, c.Done)
		}
	}
	code, csv := fetch(t, ts.URL+"/campaigns/"+st.ID+"/results?format=csv")
	if code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	if csv != goldenCSV(t) {
		t.Error("daemon CSV differs from in-process run")
	}
	code, body := fetch(t, ts.URL+"/campaigns/"+st.ID+"/results?format=json")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("json results: status %d, valid=%v", code, json.Valid([]byte(body)))
	}
	// Resubmitting the same config is idempotent: same job, no rerun.
	if again := submit(t, ts, testBody()); again.ID != st.ID {
		t.Errorf("resubmit created %s, want %s", again.ID, st.ID)
	}
	// A scheduling-knob change is still the same campaign identity.
	tweaked := bytes.Replace(testBody(), []byte(`"workers": 2`), []byte(`"workers": 7`), 1)
	if again := submit(t, ts, tweaked); again.ID != st.ID {
		t.Errorf("worker-count resubmit created %s, want %s", again.ID, st.ID)
	}
}

func TestStreamTightensMonotonically(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), campaign.FullShard)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, testBody())
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	// The stream ends when the campaign reaches a terminal state; every
	// line is one cell advance.
	lastDone := map[int]int{}
	lastCI := map[int][2]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev cellEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Done <= lastDone[ev.Cell] {
			t.Fatalf("cell %d watermark went %d -> %d", ev.Cell, lastDone[ev.Cell], ev.Done)
		}
		lastDone[ev.Cell] = ev.Done
		if len(ev.Points) != 2 {
			t.Fatalf("cell %d event has %d points, want 2", ev.Cell, len(ev.Points))
		}
		lastCI[ev.Cell] = [2]float64{ev.Points[0].CILow, ev.Points[0].CIHigh}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lastDone) != 2 {
		t.Fatalf("stream covered %d cells, want 2", len(lastDone))
	}
	for cell, done := range lastDone {
		if done != 3 {
			t.Fatalf("cell %d stream ended at done=%d, want 3", cell, done)
		}
	}
	// The final streamed CIs are the published report's CIs.
	res, err := sweep.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cell, ci := range lastCI {
		pt := res.Cells[cell].Points[0]
		if ci[0] != pt.CILow || ci[1] != pt.CIHigh {
			t.Fatalf("cell %d streamed CI [%v,%v], report says [%v,%v]", cell, ci[0], ci[1], pt.CILow, pt.CIHigh)
		}
	}
}

// submitGrid is a valid one-cell grid the error-path bodies perturb.
const submitGrid = `"circuits": ["mul4"], "yields": [0.2], "n0s": [3], "lot_sizes": [60], "coverages": [0.5], "replicates": 1, "random_patterns": 32`

// errorPathBodies are submit bodies the daemon must refuse with 400:
// malformed JSON, an unknown field (the retired engine fields
// included), an empty grid, a builtin spec past its size cap, a lot
// size, task count or random-pattern budget past the config size cap, a
// worker count past the worker cap. names is a substring the error must
// carry: the field or the cap.
var errorPathBodies = map[string]struct{ body, names string }{
	"not json":           {`{"circuits": [`, ""},
	"unknown field":      {`{"circuits": ["mul4"], "bogus": 1}`, ""},
	"empty grid":         {`{"circuits": ["mul4"]}`, ""},
	"bad circuit":        {`{"circuits": ["no-such-circuit"], "yields": [0.2], "n0s": [3], "lot_sizes": [60], "coverages": [0.5], "replicates": 1, "random_patterns": 32}`, ""},
	"engine field":       {`{` + submitGrid + `, "engine": "ppsfp"}`, `unknown field \"engine\"`},
	"lot engine field":   {`{` + submitGrid + `, "lot_engine": "chipparallel256"}`, `unknown field \"lot_engine\"`},
	"oversized circuit":  {strings.Replace(`{`+submitGrid+`}`, `"mul4"`, `"lsi400000000"`, 1), "size cap"},
	"oversized workers":  {`{` + submitGrid + `, "workers": 1000000}`, "worker count 1000000 above the cap"},
	"oversized sim pool": {`{` + submitGrid + `, "sim_workers": 1000000}`, "sim worker count 1000000 above the cap"},
	"oversized lot":      {strings.Replace(`{`+submitGrid+`}`, `[60]`, `[2000000000]`, 1), "lot size 2000000000 above the cap"},
	"oversized tasks":    {strings.Replace(`{`+submitGrid+`}`, `"replicates": 1`, `"replicates": 2000000000`, 1), "task count (cells × replicates) above the cap"},
	"oversized patterns": {strings.Replace(`{`+submitGrid+`}`, `"random_patterns": 32`, `"random_patterns": 2000000000`, 1), "random pattern count 2000000000 above the cap"},
}

func TestErrorPaths(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), campaign.FullShard)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	for name, tc := range errorPathBodies {
		code, body := post(tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if !strings.Contains(body, tc.names) {
			t.Errorf("%s: error %q does not name %q", name, body, tc.names)
		}
	}
	// An oversized body is refused with 413 before it is buffered, and
	// the daemon keeps serving.
	huge := `{"circuits": ["` + strings.Repeat("a", maxSubmitBytes) + `"]}`
	if code, _ := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
	if code, _ := fetch(t, ts.URL+"/campaigns"); code != http.StatusOK {
		t.Errorf("GET /campaigns after an oversized submit: status %d, want 200", code)
	}
	// Unknown campaign ID: 404 on every read endpoint.
	for _, path := range []string{"/campaigns/nope", "/campaigns/nope/results", "/campaigns/nope/stream", "/campaigns/nope/shard"} {
		if code, _ := fetch(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	// Unknown results format: 400.
	st := submit(t, ts, testBody())
	waitState(t, ts, st.ID, stateDone)
	if code, _ := fetch(t, ts.URL+"/campaigns/"+st.ID+"/results?format=xml"); code != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", code)
	}
	// /shard on a whole-campaign daemon: 409.
	if code, _ := fetch(t, ts.URL+"/campaigns/"+st.ID+"/shard"); code != http.StatusConflict {
		t.Errorf("shard on full daemon: status %d, want 409", code)
	}
}

func TestGracefulShutdownDrainsAndResumes(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, dir, campaign.FullShard)
	ts := httptest.NewServer(srv)

	// Submit and immediately begin shutdown: the interrupt fires while
	// the job is still preparing circuits, so it drains before folding
	// anything — the checkpoint is written on the way out.
	st := submit(t, ts, testBody())
	srv.beginShutdown()
	got := getStatus(t, ts, st.ID)
	if got.State != stateInterrupted && got.State != stateDone {
		t.Fatalf("after shutdown: state %s", got.State)
	}
	// Submissions during/after shutdown: 503.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(testBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: status %d, want 503", resp.StatusCode)
	}
	ts.Close()

	// The fingerprint-named checkpoint survived the shutdown.
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files after shutdown: %v (err %v)", files, err)
	}
	if fi, err := os.Stat(files[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint %s: %v", files[0], err)
	}

	// A fresh daemon on the same checkpoint directory resumes the
	// campaign on resubmit and lands on the in-process bytes.
	srv2 := newTestServer(t, dir, campaign.FullShard)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	st2 := submit(t, ts2, testBody())
	if !st2.Resumed && getStatus(t, ts2, st2.ID).State != stateDone {
		// Resumed is set by the runner; re-read once it has started.
		if final := waitState(t, ts2, st2.ID, stateDone); !final.Resumed {
			t.Error("resubmit after shutdown did not resume from the checkpoint")
		}
	}
	waitState(t, ts2, st2.ID, stateDone)
	code, csv := fetch(t, ts2.URL+"/campaigns/"+st2.ID+"/results")
	if code != http.StatusOK || csv != goldenCSV(t) {
		t.Errorf("resumed daemon CSV differs from in-process run (status %d)", code)
	}
}

func TestShardedDaemonsMergeToSerialBytes(t *testing.T) {
	// Three sharded daemons each compute their slice; their /shard
	// outputs merge into the serial bytes. /results and /stream on a
	// sharded daemon are 409s pointing at /shard.
	const n = 3
	var shards []*campaign.ShardResult
	var firstTS *httptest.Server
	var firstID string
	for i := 0; i < n; i++ {
		srv := newTestServer(t, t.TempDir(), campaign.Shard{Index: i, Count: n})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		st := submit(t, ts, testBody())
		waitState(t, ts, st.ID, stateDone)
		if st.Shard == "" && getStatus(t, ts, st.ID).Shard != fmt.Sprintf("%d/%d", i, n) {
			t.Fatalf("shard %d: status does not report its shard", i)
		}
		code, body := fetch(t, ts.URL+"/campaigns/"+st.ID+"/shard")
		if code != http.StatusOK {
			t.Fatalf("shard %d: /shard status %d: %s", i, code, body)
		}
		var sr campaign.ShardResult
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, &sr)
		if i == 0 {
			firstTS, firstID = ts, st.ID
		}
	}
	for _, path := range []string{"/results", "/stream"} {
		if code, _ := fetch(t, firstTS.URL+"/campaigns/"+firstID+path); code != http.StatusConflict {
			t.Errorf("GET %s on sharded daemon: status %d, want 409", path, code)
		}
	}
	sw, err := sweep.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sw.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.CSV() != goldenCSV(t) {
		t.Error("merged sharded-daemon CSV differs from serial run")
	}
}
