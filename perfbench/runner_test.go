package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// helperEnv selects what the test binary does when a test re-runs it
// as a child process.
const helperEnv = "PERFBENCH_TEST_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "":
		os.Exit(m.Run())
	case "ok":
		fmt.Println("progress line")
		fmt.Println(`{"setup_s": 1.5, "campaign_s": [2], "digest": "ab"}`)
		os.Exit(0)
	case "hang":
		// Start a grandchild in the same process group, report its
		// pid, and never finish.
		gc := exec.Command("sleep", "300")
		if err := gc.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(3)
		}
		fmt.Printf("%d\n", gc.Process.Pid)
		time.Sleep(time.Hour)
		os.Exit(5)
	default:
		os.Exit(4)
	}
}

func helper(mode string, deadline time.Duration) childSpec {
	return childSpec{Argv: []string{os.Args[0]}, Env: []string{helperEnv + "=" + mode}, Deadline: deadline}
}

// alive reports whether pid names a process that is still running (a
// zombie waiting to be reaped by its new parent counts as ended).
func alive(pid int) bool {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	fields := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	return len(fields) > 0 && fields[0] != "Z" && fields[0] != "X"
}

func TestRunChildKillsOverrunningGroup(t *testing.T) {
	start := time.Now()
	out, err := runChild(context.Background(), helper("hang", 500*time.Millisecond), io.Discard)
	if !errors.Is(err, errTimedOut) {
		t.Fatalf("runChild error = %v, want errTimedOut", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("runChild returned after %v, want soon after the 500ms deadline", el)
	}
	pid, perr := strconv.Atoi(lastLine(out))
	if perr != nil {
		t.Fatalf("helper printed no grandchild pid: %q", out)
	}
	// The kill is asynchronous for a process we do not wait on.
	for i := 0; alive(pid) && i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
	}
	if alive(pid) {
		t.Errorf("grandchild %d still running after its group was killed", pid)
	}
}

func TestRunChildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	if _, err := runChild(ctx, helper("hang", time.Minute), io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("runChild error = %v, want context.Canceled", err)
	}
}

func TestLedgerCountsOverrunAsFailed(t *testing.T) {
	var l ledger
	var res runResult
	if !l.run(context.Background(), "ok", helper("ok", time.Minute), io.Discard, &res) {
		t.Fatalf("ok child failed: %v", l.Problems)
	}
	if res.SetupS != 1.5 || res.Digest != "ab" {
		t.Errorf("parsed result %+v", res)
	}
	if l.run(context.Background(), "hang", helper("hang", 300*time.Millisecond), io.Discard, &res) {
		t.Fatal("overrunning child reported success")
	}
	if l.Attempted != 2 || l.Failed != 1 {
		t.Fatalf("ledger %d failed of %d attempted, want 1 of 2", l.Failed, l.Attempted)
	}
	if got := failedFrac(l.Failed, l.Attempted); got != 0.5 {
		t.Errorf("failedFrac = %v, want 0.5", got)
	}
	if !strings.Contains(l.Problems[0], "overran its deadline") {
		t.Errorf("problem %q does not name the overrun", l.Problems[0])
	}
}

func TestLedgerCountsBadExitAsFailed(t *testing.T) {
	var l ledger
	var res runResult
	if l.run(context.Background(), "bad", helper("unknown-mode", time.Minute), io.Discard, &res) {
		t.Fatal("child exiting 4 reported success")
	}
	if l.Attempted != 1 || l.Failed != 1 {
		t.Fatalf("ledger %d failed of %d attempted, want 1 of 1", l.Failed, l.Attempted)
	}
}
