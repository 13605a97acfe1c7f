package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/metrics"
)

// quickRunner builds a Runner at quick scale, shared across subtests via the
// memoized sweeps.
func quickRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(Quick(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRunnerValidation(t *testing.T) {
	cfg := Quick()
	cfg.EIDCounts = nil
	if _, err := NewRunner(cfg, nil); err == nil {
		t.Error("want error for empty sweep")
	}
	cfg = Quick()
	cfg.Base.NumPersons = 0
	if _, err := NewRunner(cfg, nil); err == nil {
		t.Error("want error for bad base config")
	}
	cfg = Quick()
	cfg.DensityTimeEIDs = 0
	if _, err := NewRunner(cfg, nil); err == nil {
		t.Error("want error for zero DensityTimeEIDs")
	}
}

func TestPaperConfigValid(t *testing.T) {
	if err := Paper().validate(); err != nil {
		t.Errorf("Paper config invalid: %v", err)
	}
}

// TestEIDSweepShapes pins the qualitative shapes of Figs. 5, 7, 8 and
// Table I on the quick-scale world.
func TestEIDSweepShapes(t *testing.T) {
	r := quickRunner(t)
	ctx := context.Background()

	fig5, err := r.Fig5(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ssSel, _ := fig5.Column("SS")
	edpSel, _ := fig5.Column("EDP")
	if len(ssSel) != len(r.cfg.EIDCounts) {
		t.Fatalf("Fig5 points = %d", len(ssSel))
	}
	for i := range ssSel {
		// Headline shape: SS selects fewer unique scenarios than EDP.
		if ssSel[i] >= edpSel[i] {
			t.Errorf("Fig5 point %d: SS=%v >= EDP=%v", i, ssSel[i], edpSel[i])
		}
	}
	// Both curves grow with the number of matched EIDs.
	if ssSel[len(ssSel)-1] <= ssSel[0] {
		t.Errorf("Fig5 SS not increasing: %v", ssSel)
	}
	if edpSel[len(edpSel)-1] <= edpSel[0] {
		t.Errorf("Fig5 EDP not increasing: %v", edpSel)
	}

	fig7, err := r.Fig7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ssPer, _ := fig7.Column("SS")
	for _, v := range ssPer {
		if v < 1 || v > 12 {
			t.Errorf("Fig7 SS per-EID out of plausible range: %v", v)
		}
	}

	// Fig. 8 plots stage times, which a loaded machine skews; its shapes are
	// asserted on the same runs' deterministic work counts.
	fig8, err := r.Fig8(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ssE, _ := fig8.Column("SS-E"); len(ssE) != len(r.cfg.EIDCounts) {
		t.Fatalf("Fig8 points = %d", len(ssE))
	}
	for i, n := range r.cfg.EIDCounts {
		ss, edp, err := r.both(ctx, "base", nil, n)
		if err != nil {
			t.Fatal(err)
		}
		// E stage is negligible next to V stage (paper Fig. 8): a split
		// probes far fewer scenarios than extraction handles patches.
		if ss.blockCandidates > int64(ss.extractions) {
			t.Errorf("Fig8 point %d: E stage probed %d scenarios, V stage extracted only %d patches", i, ss.blockCandidates, ss.extractions)
		}
		// At the largest sweep point SS's V stage undercuts EDP's.
		if i == len(r.cfg.EIDCounts)-1 && ss.Processed >= edp.Processed {
			t.Errorf("Fig8 largest point: SS processed %d scenarios, EDP %d", ss.Processed, edp.Processed)
		}
	}

	table1, err := r.Table1(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := table1.String()
	if !strings.Contains(out, "SS") || !strings.Contains(out, "EDP") || !strings.Contains(out, "%") {
		t.Errorf("Table1 output:\n%s", out)
	}
}

func TestDensitySweepShapes(t *testing.T) {
	r := quickRunner(t)
	ctx := context.Background()
	fig6, err := r.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig6.Points) != len(r.cfg.Densities) {
		t.Fatalf("Fig6 points = %d", len(fig6.Points))
	}
	for _, n := range r.cfg.DensityEIDCounts {
		ss, ok1 := fig6.Column("SS-" + itoa(n))
		edp, ok2 := fig6.Column("EDP-" + itoa(n))
		if !ok1 || !ok2 {
			t.Fatalf("Fig6 missing columns for n=%d", n)
		}
		for i := range ss {
			if ss[i] >= edp[i] {
				t.Errorf("Fig6 n=%d density %v: SS=%v >= EDP=%v",
					n, fig6.Points[i].X, ss[i], edp[i])
			}
		}
		// SS's unique-scenario count shrinks as density grows (reuse).
		if ss[len(ss)-1] >= ss[0] {
			t.Errorf("Fig6 n=%d: SS count did not decrease with density: %v", n, ss)
		}
	}

	fig9, err := r.Fig9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig9.Points) != len(r.cfg.Densities) {
		t.Fatalf("Fig9 points = %d", len(fig9.Points))
	}

	table2, err := r.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table2.String(), "%") {
		t.Errorf("Table2 output:\n%s", table2)
	}
}

func TestMissingSweeps(t *testing.T) {
	r := quickRunner(t)
	ctx := context.Background()
	ss10, edp10, err := r.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertAccuracySeries(t, "Fig10 SS", ss10)
	assertAccuracySeries(t, "Fig10 EDP", edp10)

	ss11, edp11, err := r.Fig11(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertAccuracySeries(t, "Fig11 SS", ss11)
	assertAccuracySeries(t, "Fig11 EDP", edp11)
}

func assertAccuracySeries(t *testing.T, name string, s *metrics.Series) {
	t.Helper()
	if len(s.Points) == 0 {
		t.Fatalf("%s: no points", name)
	}
	for _, p := range s.Points {
		for i, y := range p.Y {
			if y < 0 || y > 100 {
				t.Errorf("%s: accuracy %v out of range at x=%v col=%d", name, y, p.X, i)
			}
		}
	}
}

func TestRunAllWritesEverySection(t *testing.T) {
	r := quickRunner(t)
	var buf bytes.Buffer
	if err := r.RunAll(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
		"Table I", "Table II", "Fig 10 (a)", "Fig 10 (b)", "Fig 11 (a)", "Fig 11 (b)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestRunMemoization(t *testing.T) {
	r := quickRunner(t)
	ctx := context.Background()
	if _, err := r.Fig5(ctx); err != nil {
		t.Fatal(err)
	}
	runsAfterFig5 := len(r.runs)
	if _, err := r.Fig7(ctx); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != runsAfterFig5 {
		t.Errorf("Fig7 re-ran the EID sweep: %d -> %d runs", runsAfterFig5, len(r.runs))
	}
	if _, err := r.Fig8(ctx); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != runsAfterFig5 {
		t.Errorf("Fig8 re-ran the EID sweep")
	}
}

func coreAlgSS() core.Algorithm { return core.AlgorithmSS }

func itoa(n int) string {
	return metrics.F(float64(n), 0)
}

func TestMultiRunAveraging(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 2
	r, err := NewRunner(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := r.run(ctx, "base", nil, coreAlgSS(), cfg.EIDCounts[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Accuracy < 0 || p.Accuracy > 1 {
		t.Errorf("averaged accuracy = %v", p.Accuracy)
	}
	if p.Selected == 0 || p.PerEID <= 0 {
		t.Errorf("averaged point = %+v", p)
	}
	cfg.Runs = -1
	if _, err := NewRunner(cfg, nil); err == nil {
		t.Error("want error for negative Runs")
	}
}
