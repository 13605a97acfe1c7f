package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"evmatching/internal/cluster"
	"evmatching/internal/dataset"
	"evmatching/internal/mrtest"
)

// startCluster boots a coordinator with in-process workers over real
// localhost RPC and returns the adapted executor.
func startCluster(t *testing.T, nWorkers int) *cluster.Executor {
	t.Helper()
	mrtest.CheckGoroutines(t)
	dir := t.TempDir()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := coord.Serve(lis)
	reg := cluster.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		w, err := cluster.NewWorker(addr, cluster.WorkerConfig{
			ID:       fmt.Sprintf("core-w%d", i),
			Dir:      dir,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		_ = coord.Close()
		cancel()
		wg.Wait()
	})
	exec, err := cluster.NewExecutor(coord, reg)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// TestSSOnDistributedCluster runs the full EV-Matching pipeline with its
// MapReduce stages dispatched to a real coordinator/worker cluster over RPC:
// the end-to-end equivalent of the paper's Spark deployment.
func TestSSOnDistributedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed integration skipped in -short mode")
	}
	ds := testDataset(t, func(c *dataset.Config) {
		c.NumPersons = 80
		c.Density = 10
		c.NumWindows = 16
	})
	exec := startCluster(t, 3)
	m := newMatcher(t, ds, Options{
		Mode:     ModeParallel,
		Executor: exec,
	})
	rng := rand.New(rand.NewSource(9))
	targets := ds.SampleEIDs(25, rng)
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Accuracy(truthFn(ds)); got < 0.7 {
		t.Errorf("distributed accuracy = %v", got)
	}
	// The serial reference must agree on the matched VIDs.
	serial := newMatcher(t, ds, Options{Mode: ModeSerial})
	repS, err := serial.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, e := range targets {
		if rep.Results[e].VID == repS.Results[e].VID {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(targets)); frac < 0.85 {
		t.Errorf("distributed and serial agree on only %.0f%% of matches", frac*100)
	}
}
