package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestJobFailureIsErrTaskFailed: a deterministic function error surfacing
// through the retry path must stay classifiable with errors.Is, so callers
// can tell "the job's code is broken" from transient infrastructure loss.
func TestJobFailureIsErrTaskFailed(t *testing.T) {
	tc := startCluster(t, 2, time.Minute, nil)
	spec := wcSpec()
	spec.ReduceName = "boom.reduce"
	_, err := tc.coord.RunJob(context.Background(), spec, wordLines([]string{"a b", "c"}))
	if err == nil {
		t.Fatal("want error from failing reduce")
	}
	if !errors.Is(err, ErrTaskFailed) {
		t.Errorf("errors.Is(err, ErrTaskFailed) = false for %v", err)
	}
	if errors.Is(err, ErrCoordinatorClosed) || errors.Is(err, context.Canceled) {
		t.Errorf("error misclassified: %v", err)
	}
}

// TestRunJobAfterCloseIsErrCoordinatorClosed: submission after Close must be
// detectable without string matching.
func TestRunJobAfterCloseIsErrCoordinatorClosed(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = coord.RunJob(context.Background(), wcSpec(), nil)
	if !errors.Is(err, ErrCoordinatorClosed) {
		t.Errorf("errors.Is(err, ErrCoordinatorClosed) = false for %v", err)
	}
}

// TestRunJobCancellationIsContextError: cancellation must propagate through
// the coordinator's wrapping so callers can errors.Is it back out.
func TestRunJobCancellationIsContextError(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no workers connected: the job can only end by cancellation
	_, err = coord.RunJob(ctx, wcSpec(), wordLines([]string{"a"}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// TestPoolCollapseIsErrNoWorkers: worker-pool collapse must be classifiable
// so callers (and operators) can tell it apart from broken job code.
func TestPoolCollapseIsErrNoWorkers(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	coord.lease = 50 * time.Millisecond
	defer coord.Close()
	_, err = coord.RunJob(context.Background(), wcSpec(), wordLines([]string{"a"}))
	if !errors.Is(err, ErrNoWorkers) {
		t.Errorf("errors.Is(err, ErrNoWorkers) = false for %v", err)
	}
	if errors.Is(err, ErrTaskFailed) || errors.Is(err, ErrCoordinatorClosed) {
		t.Errorf("error misclassified: %v", err)
	}
}
