package chaos

import (
	"testing"
	"time"

	"evmatching/internal/cluster"
)

func TestInjectorValidation(t *testing.T) {
	bad := []Config{
		{CrashBeforeExecute: -0.1},
		{CrashBeforeReport: 1.5},
		{Stall: 2},
		{DuplicateReport: 7},
		{StallFor: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewInjector(1, cfg); err == nil {
			t.Errorf("config %d: want validation error", i)
		}
	}
	if _, err := NewInjector(1, Config{}); err != nil {
		t.Errorf("zero config: %v", err)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{
		CrashBeforeExecute: 0.3,
		CrashBeforeReport:  0.3,
		Stall:              0.3,
		DuplicateReport:    0.3,
	}
	a, err := NewInjector(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewInjector(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for task := 0; task < 64; task++ {
		// Decisions depend only on the coordinates, not on call order: query
		// b in reverse to make an order dependence visible.
		rev := 63 - task
		if a.TaskFault("w1", "j1", cluster.TaskMap, task) != b.TaskFault("w1", "j1", cluster.TaskMap, task) {
			t.Fatalf("task %d: same seed disagrees", task)
		}
		if b.TaskFault("w1", "j1", cluster.TaskMap, rev) != a.TaskFault("w1", "j1", cluster.TaskMap, rev) {
			t.Fatalf("task %d: order-dependent decision", rev)
		}
		if a.TaskFault("w1", "j1", cluster.TaskMap, task) != other.TaskFault("w1", "j1", cluster.TaskMap, task) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical schedules — seed is ignored")
	}
}

func TestInjectorProbabilityExtremes(t *testing.T) {
	never, err := NewInjector(7, Config{})
	if err != nil {
		t.Fatal(err)
	}
	always, err := NewInjector(7, Config{
		CrashBeforeExecute: 1, CrashBeforeReport: 1, Stall: 1, DuplicateReport: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 32; task++ {
		if f := never.TaskFault("w", "j", cluster.TaskReduce, task); f != (cluster.TaskFault{}) {
			t.Fatalf("zero config injected %+v", f)
		}
		f := always.TaskFault("w", "j", cluster.TaskReduce, task)
		if !f.CrashBeforeExecute || !f.CrashBeforeReport ||
			!f.DuplicateReport || f.StallBeforeReport != DefaultStallFor {
			t.Fatalf("probability-1 config skipped a fault: %+v", f)
		}
	}
}
