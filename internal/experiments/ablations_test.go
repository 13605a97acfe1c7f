package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"evmatching/internal/core"
)

func TestAblationReuseShowsSavings(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationReuse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(r.cfg.Table1Counts) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		processed, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad processed cell %q", row[2])
		}
		without, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad without-reuse cell %q", row[3])
		}
		if float64(processed) >= without {
			t.Errorf("no reuse savings: processed %d >= without %v", processed, without)
		}
	}
}

func TestAblationVagueZone(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationVagueZone(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Both variants must produce sane accuracy strings.
	for _, row := range tbl.Rows {
		if !strings.HasSuffix(row[1], "%") {
			t.Errorf("accuracy cell %q", row[1])
		}
	}
}

func TestAblationRefineRounds(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationRefineRounds(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationMatchingSizePerPairDecreases(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationMatchingSize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The paper's claim: larger matching sizes cost less per pair. Compare
	// the single-EID row against the largest.
	first := parseDurCell(t, tbl.Rows[0][2])
	last := parseDurCell(t, tbl.Rows[len(tbl.Rows)-1][2])
	if last >= first {
		t.Errorf("per-pair time did not decrease: %v -> %v", tbl.Rows[0][2], tbl.Rows[len(tbl.Rows)-1][2])
	}
}

func parseDurCell(t *testing.T, s string) float64 {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("bad duration cell %q: %v", s, err)
	}
	return d.Seconds()
}

func TestAblationParallelSpeedup(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationParallelSpeedup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationLayout(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationLayout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "grid" || tbl.Rows[1][0] != "hex" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestRunAblationsWritesAll(t *testing.T) {
	r := quickRunner(t)
	var buf bytes.Buffer
	if err := r.RunAblations(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"scenario reuse", "vague zone", "refining rounds",
		"matching size", "parallelism", "cell layout",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestRunWithOptionOverride(t *testing.T) {
	// Under VID missing, refining re-runs the split for the unaccepted EIDs,
	// and every extra round it is allowed selects scenarios of its own.
	r := quickRunner(t)
	ctx := context.Background()
	rate := r.cfg.VIDMissRates[len(r.cfg.VIDMissRates)-1]
	n := r.cfg.MissEIDCounts[len(r.cfg.MissEIDCounts)-1]
	key := fmt.Sprintf("vmiss=%.2f", rate)
	def, err := r.run(ctx, key, vidMissMutator(rate), core.AlgorithmSS, n)
	if err != nil {
		t.Fatal(err)
	}
	rounds := r.cfg.Matcher.MaxRefineRounds + 1
	longer, err := r.runWith(ctx, key, vidMissMutator(rate), core.AlgorithmSS, n,
		fmt.Sprintf("refine=%d", rounds), func(o *core.Options) { o.MaxRefineRounds = rounds })
	if err != nil {
		t.Fatal(err)
	}
	if longer.Selected <= def.Selected {
		t.Errorf("override ignored: %d refine rounds selected %d scenarios, default %d",
			rounds, longer.Selected, def.Selected)
	}
}

func TestAblationMobility(t *testing.T) {
	r := quickRunner(t)
	tbl, err := r.AblationMobility(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "waypoint" || tbl.Rows[1][0] != "hotspot" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}
