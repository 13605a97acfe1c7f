package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"evmatching/internal/cluster"
)

// freePort reserves an ephemeral localhost port and returns its address.
func freePort(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	if err := lis.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// runWorkerForTest joins one demo worker to the coordinator, retrying the
// dial until the coordinator is listening, then processes tasks in the
// background. Worker RPC errors after the coordinator shuts down are
// expected and ignored.
func runWorkerForTest(addr, dir string, dialBudget time.Duration) error {
	reg := cluster.NewRegistry()
	if err := cluster.RegisterWordCount(reg); err != nil {
		return err
	}
	deadline := time.Now().Add(dialBudget)
	for {
		w, err := cluster.NewWorker(addr, cluster.WorkerConfig{ID: "test-worker", Dir: dir, Registry: reg})
		if err == nil {
			go func() {
				// The coordinator closing mid-request surfaces as an RPC
				// error here; the job result is what the test asserts on.
				_ = w.Run(context.Background())
			}()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dial coordinator: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestCoordinatorAndWorkerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "corpus.txt")
	if err := os.WriteFile(in, []byte("go go gadget\ngadget go\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)

	// Silence stdout from both run functions.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-dir", dir, "-addr", addr, "-in", in, "-reducers", "2", "-maps", "2"})
	}()

	// Give the coordinator a moment to listen, then join one worker (the
	// worker loop is defined in cmd/mrworker; here we exercise the RPC path
	// through the cluster package the same way that command does).
	if err := runWorkerForTest(addr, dir, 3*time.Second); err != nil {
		t.Fatalf("worker: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not finish")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error for missing flags")
	}
	if err := run([]string{"-dir", t.TempDir(), "-in", "no-such-file", "-addr", freePort(t)}); err == nil {
		t.Error("want error for missing input file")
	}
}
