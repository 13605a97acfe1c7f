package mrtest

import (
	"slices"
	"strings"
	"testing"
)

// profiledDump is a stack dump of a test binary run with -cpuprofile: the
// test's goroutine, the profile writer the flag starts, and one worker
// goroutine the code under test left running.
const profiledDump = `goroutine 7 [running]:
evmatching/internal/chaos/sim.TestSimFingerprintStableUnderFaults(0xc000102b60)
	/src/internal/chaos/sim/sim_test.go:40 +0x1d
testing.tRunner(0xc000102b60, 0x6b1e28)
	/go/src/testing/testing.go:1690 +0xf4
created by testing.(*T).Run in goroutine 1
	/go/src/testing/testing.go:1743 +0x390

goroutine 6 [sleep]:
time.Sleep(0x5f5e100)
	/go/src/runtime/time.go:338 +0x165
runtime/pprof.profileWriter({0x7c5d40, 0xc000012018})
	/go/src/runtime/pprof/pprof.go:900 +0x2e
created by runtime/pprof.StartCPUProfile in goroutine 1
	/go/src/runtime/pprof/pprof.go:886 +0x11a

goroutine 9 [chan receive]:
evmatching/internal/cluster.(*Worker).loop(0xc0001a4000)
	/src/internal/cluster/worker.go:80 +0x45
created by evmatching/internal/cluster.(*Worker).Start in goroutine 7
	/src/internal/cluster/worker.go:60 +0x8a
`

// TestGoroutineKeysSkipProfileWriter checks the dump's keys: the profile
// writer is dropped with the test harness's goroutine, and the code under
// test's goroutine is kept.
func TestGoroutineKeysSkipProfileWriter(t *testing.T) {
	got := goroutineKeys([]byte(profiledDump))
	want := []string{"evmatching/internal/cluster.(*Worker).loop <- evmatching/internal/cluster.(*Worker).Start"}
	if !slices.Equal(got, want) {
		t.Errorf("keys:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
