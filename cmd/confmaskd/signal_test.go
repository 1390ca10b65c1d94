package main

import (
	"bufio"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMRightAfterListening sends SIGTERM the moment the daemon
// announces its listen address, over and over: every run must drain,
// exit with status 0 and log "confmaskd stopped". A handler installed
// after the announcement leaves a window in which the signal's default
// action kills the daemon instead.
func TestSIGTERMRightAfterListening(t *testing.T) {
	bin := buildDaemon(t)
	for run := 0; run < 10; run++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
		var lines []string
		signalled, stopped := false, false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			if !signalled && strings.Contains(line, "listening on") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				signalled = true
			}
			stopped = stopped || strings.Contains(line, "confmaskd stopped")
		}
		err = cmd.Wait()
		timer.Stop()
		if !signalled {
			t.Fatalf("run %d: daemon never announced its listen address:\n%s", run, strings.Join(lines, "\n"))
		}
		if err != nil || !stopped {
			t.Fatalf("run %d: exit %v, stopped=%v after an immediate SIGTERM:\n%s", run, err, stopped, strings.Join(lines, "\n"))
		}
	}
}
