package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// errTimedOut marks a child that overran its deadline and was killed.
var errTimedOut = errors.New("perfbench: child overran its deadline and was killed")

// childSpec is one child process the parent starts: its argv, extra
// environment, and how long it may run.
type childSpec struct {
	Argv     []string
	Env      []string
	Deadline time.Duration
}

// runChild runs spec in its own process group and waits for it. When
// the deadline passes or ctx is cancelled, the whole group is killed
// and waited for, so nothing the child started outlives the call. The
// child's standard error is copied to stderr; its standard output is
// returned.
func runChild(ctx context.Context, spec childSpec, stderr io.Writer) ([]byte, error) {
	if len(spec.Argv) == 0 {
		return nil, errors.New("perfbench: empty child command")
	}
	cmd := exec.Command(spec.Argv[0], spec.Argv[1:]...)
	cmd.Env = append(os.Environ(), spec.Env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("perfbench: start %s: %w", spec.Argv[0], err)
	}
	pgid := cmd.Process.Pid
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	timer := time.NewTimer(spec.Deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		// The leader is gone; sweep up anything it left in its group.
		killGroup(pgid)
		if err != nil {
			return out.Bytes(), fmt.Errorf("perfbench: child %s: %w", spec.Argv[0], err)
		}
		return out.Bytes(), nil
	case <-timer.C:
		killGroup(pgid)
		<-done
		return out.Bytes(), fmt.Errorf("%w (after %v)", errTimedOut, spec.Deadline)
	case <-ctx.Done():
		killGroup(pgid)
		<-done
		return out.Bytes(), fmt.Errorf("perfbench: child cancelled: %w", ctx.Err())
	}
}

// killGroup sends SIGKILL to every process in the group; a group that
// no longer exists is not an error.
func killGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH: the group is already gone
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return strings.TrimSpace(lines[len(lines)-1])
}

// ledger counts the runs a benchmark invocation attempted and those
// that errored, timed out, or failed an output check.
type ledger struct {
	Attempted int
	Failed    int
	Problems  []string
}

// fail records one failed run with its reason.
func (l *ledger) fail(reason string) {
	l.Failed++
	l.Problems = append(l.Problems, reason)
}

// run starts one child, parses the JSON object on the last line of its
// output into v, and records the run. It reports whether the run
// succeeded; a child that timed out, exited non-zero, or printed no
// parsable result counts as failed.
func (l *ledger) run(ctx context.Context, name string, spec childSpec, stderr io.Writer, v any) bool {
	l.Attempted++
	out, err := runChild(ctx, spec, stderr)
	if err != nil {
		l.fail(fmt.Sprintf("%s: %v", name, err))
		return false
	}
	if err := json.Unmarshal([]byte(lastLine(out)), v); err != nil {
		l.fail(fmt.Sprintf("%s: unreadable result: %v", name, err))
		return false
	}
	return true
}
