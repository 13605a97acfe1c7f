package mrtest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// LeakSnapshot counts live goroutines by identity (top frame + creation
// site), excluding runtime and test-harness goroutines.
type LeakSnapshot map[string]int

// TakeLeakSnapshot captures the current goroutine population. Compare a
// before/after pair with Leaked, or use CheckGoroutines for the common
// whole-test form.
func TakeLeakSnapshot() LeakSnapshot {
	snap := make(LeakSnapshot)
	for _, key := range goroutineKeys(allStacks()) {
		snap[key]++
	}
	return snap
}

// Leaked reports goroutines present now but not in the base snapshot,
// polling until wait elapses so goroutines that are already winding down get
// a chance to exit. An empty slice means no leaks.
func (base LeakSnapshot) Leaked(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		leaked := base.diff()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// diff lists goroutine identities exceeding their baseline count.
func (base LeakSnapshot) diff() []string {
	now := TakeLeakSnapshot()
	var leaked []string
	for key, n := range now {
		if extra := n - base[key]; extra > 0 {
			leaked = append(leaked, fmt.Sprintf("%d × %s", extra, key))
		}
	}
	return leaked
}

// CheckGoroutines snapshots the goroutine population and registers a cleanup
// failing the test if extra goroutines survive a 2s grace period. Call it
// first in a test so its cleanup runs last (cleanups are LIFO), after the
// test's own shutdown cleanups have completed.
func CheckGoroutines(t *testing.T) {
	t.Helper()
	base := TakeLeakSnapshot()
	t.Cleanup(func() {
		if leaked := base.Leaked(2 * time.Second); len(leaked) > 0 {
			t.Errorf("leaked goroutines:\n  %s", strings.Join(leaked, "\n  "))
		}
	})
}

// allStacks returns the stack dump of every live goroutine.
func allStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineKeys renders each goroutine of a stack dump as "top-function <-
// created-by", skipping stacks owned by the runtime, the testing harness,
// or this package's own snapshot machinery.
func goroutineKeys(dump []byte) []string {
	var keys []string
	for _, stanza := range strings.Split(string(dump), "\n\n") {
		lines := strings.Split(strings.TrimSpace(stanza), "\n")
		if len(lines) < 2 {
			continue
		}
		top := funcName(lines[1])
		created := ""
		for _, l := range lines {
			if strings.HasPrefix(l, "created by ") {
				created = funcName(strings.TrimPrefix(l, "created by "))
				break
			}
		}
		if ignoredGoroutine(top, created) {
			continue
		}
		key := top
		if created != "" {
			key += " <- " + created
		}
		keys = append(keys, key)
	}
	return keys
}

// funcName strips the call arguments / trailing annotations from a stack
// frame line, keeping the package-qualified function name. Receivers keep
// their parentheses ("pkg.(*T).M"): only a trailing argument list is cut.
func funcName(line string) string {
	line = strings.TrimSpace(line)
	if i := strings.Index(line, " in goroutine"); i > 0 {
		line = line[:i]
	}
	if strings.HasSuffix(line, ")") {
		if i := strings.LastIndex(line, "("); i > 0 {
			line = line[:i]
		}
	}
	return line
}

// ignoredGoroutine allowlists goroutines the Go runtime and test harness
// own. That includes those runtime/pprof creates: a test binary run with
// -cpuprofile has a profile writer whose top frame differs from one
// snapshot to the next, so it would be counted as new.
func ignoredGoroutine(top, created string) bool {
	if strings.HasPrefix(created, "runtime/pprof.") {
		return true
	}
	for _, f := range []string{top, created} {
		switch {
		case strings.HasPrefix(f, "runtime."),
			strings.HasPrefix(f, "testing."),
			strings.HasPrefix(f, "os/signal."),
			strings.HasPrefix(f, "evmatching/internal/mrtest."):
			return true
		}
	}
	return false
}
