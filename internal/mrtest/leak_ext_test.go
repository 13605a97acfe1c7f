package mrtest_test

import (
	"io"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"evmatching/internal/mrtest"
)

// TestLeakedReportsPlantedGoroutine checks that a goroutine the test
// starts and leaves blocked is still reported, with a CPU profile running
// beside it when none was already. It sits outside package mrtest, whose
// own goroutines the check skips.
func TestLeakedReportsPlantedGoroutine(t *testing.T) {
	base := mrtest.TakeLeakSnapshot()
	if err := pprof.StartCPUProfile(io.Discard); err == nil {
		defer pprof.StopCPUProfile()
	}
	release := make(chan struct{})
	go func() { <-release }()
	leaked := base.Leaked(0)
	close(release)
	if len(leaked) != 1 || !strings.Contains(leaked[0], "TestLeakedReportsPlantedGoroutine") {
		t.Fatalf("leaked = %q, want the planted goroutine alone", leaked)
	}
	if rest := base.Leaked(2 * time.Second); len(rest) > 0 {
		t.Fatalf("after its release, still reported: %q", rest)
	}
}
