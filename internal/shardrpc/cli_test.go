package shardrpc_test

import (
	"strings"
	"testing"

	"evmatching/internal/shardrpc"
)

// TestParseKillSpec pins the chaos drill's schedule syntax: whole
// "shard@step" entries only, each naming a shard the run has, and a plan
// that fires exactly the listed kills on first incarnations.
func TestParseKillSpec(t *testing.T) {
	plan, err := shardrpc.ParseKillSpec(" 0@40, 2@90 ", 3)
	if err != nil {
		t.Fatalf("ParseKillSpec: %v", err)
	}
	for _, c := range []struct {
		shard, inc int
		step       int64
		want       bool
	}{
		{0, 1, 40, true},
		{2, 1, 90, true},
		{0, 1, 39, false},
		{1, 1, 40, false},
		{0, 2, 40, false}, // a replacement runs unharmed
	} {
		if got := plan(c.shard, c.inc, c.step); got != c.want {
			t.Errorf("plan(%d, %d, %d) = %v, want %v", c.shard, c.inc, c.step, got, c.want)
		}
	}
	if plan, err := shardrpc.ParseKillSpec("  ", 3); plan != nil || err != nil {
		t.Errorf("empty spec: plan nil = %v, err = %v; want a nil plan", plan == nil, err)
	}
	// Each bad spec maps to the entry its error must name.
	for spec, ent := range map[string]string{
		"0@40x":     "0@40x",
		"1@5@9":     "1@5@9",
		"0@":        "0@",
		"@5":        "@5",
		"0@40,x@5":  "x@5",
		"0@40,":     "",
		"0@40,3@10": "3@10",
		"-1@5":      "-1@5",
		"0@0":       "0@0",
	} {
		_, err := shardrpc.ParseKillSpec(spec, 3)
		if err == nil || !strings.Contains(err.Error(), `"`+ent+`"`) {
			t.Errorf("ParseKillSpec(%q, 3): err = %v, want the entry %q refused", spec, err, ent)
		}
	}
}
