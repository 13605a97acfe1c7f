package experiments

import (
	"context"
	"fmt"
	"io"

	"evmatching/internal/dataset"
	"evmatching/internal/metrics"
)

// Fig5 regenerates "Number of selected scenarios vs Number of matched EIDs":
// SS reuses scenarios across EIDs so its unique-selection count grows far
// slower than EDP's.
func (r *Runner) Fig5(ctx context.Context) (*metrics.Series, error) {
	s := metrics.NewSeries("Fig 5: Number of selected scenarios vs number of matched EIDs",
		"matchedEIDs", "SS", "EDP")
	for _, n := range r.cfg.EIDCounts {
		ss, edp, err := r.both(ctx, "base", nil, n)
		if err != nil {
			return nil, err
		}
		s.Add(float64(n), float64(ss.Selected), float64(edp.Selected))
	}
	return s, nil
}

// Fig6 regenerates "Number of selected scenarios vs Density": with more EIDs
// per cell each selected scenario is reused more, so SS's count falls and
// converges while EDP's grows.
func (r *Runner) Fig6(ctx context.Context) (*metrics.Series, error) {
	cols := make([]string, 0, 2*len(r.cfg.DensityEIDCounts))
	for _, n := range r.cfg.DensityEIDCounts {
		cols = append(cols, fmt.Sprintf("SS-%d", n), fmt.Sprintf("EDP-%d", n))
	}
	s := metrics.NewSeries("Fig 6: Number of selected scenarios vs density (EIDs per cell)",
		"density", cols...)
	for _, d := range r.cfg.Densities {
		ys := make([]float64, 0, len(cols))
		for _, n := range r.cfg.DensityEIDCounts {
			ss, edp, err := r.both(ctx, dsKeyDensity(d), densityMutator(d), n)
			if err != nil {
				return nil, err
			}
			ys = append(ys, float64(ss.Selected), float64(edp.Selected))
		}
		s.Add(d, ys...)
	}
	return s, nil
}

// Fig7 regenerates "Average number of selected scenarios per matched EID".
func (r *Runner) Fig7(ctx context.Context) (*metrics.Series, error) {
	s := metrics.NewSeries("Fig 7: Average number of selected scenarios per matched EID",
		"matchedEIDs", "SS", "EDP")
	for _, n := range r.cfg.EIDCounts {
		ss, edp, err := r.both(ctx, "base", nil, n)
		if err != nil {
			return nil, err
		}
		s.Add(float64(n), ss.PerEID, edp.PerEID)
	}
	return s, nil
}

// Fig8 regenerates "Processing time vs Number of matched EIDs": E-stage time
// is negligible, V-stage time dominates, and SS undercuts EDP because it
// processes far fewer scenarios.
func (r *Runner) Fig8(ctx context.Context) (*metrics.Series, error) {
	s := metrics.NewSeries("Fig 8: Processing time (s) vs number of matched EIDs",
		"matchedEIDs", "SS-E", "SS-V", "SS-E+V", "EDP-E", "EDP-V", "EDP-E+V")
	for _, n := range r.cfg.EIDCounts {
		ss, edp, err := r.both(ctx, "base", nil, n)
		if err != nil {
			return nil, err
		}
		s.Add(float64(n),
			ss.ETime.Seconds(), ss.VTime.Seconds(), (ss.ETime + ss.VTime).Seconds(),
			edp.ETime.Seconds(), edp.VTime.Seconds(), (edp.ETime + edp.VTime).Seconds())
	}
	return s, nil
}

// Fig9 regenerates "Processing time vs Density" at the configured matched-EID
// count.
func (r *Runner) Fig9(ctx context.Context) (*metrics.Series, error) {
	s := metrics.NewSeries(
		fmt.Sprintf("Fig 9: Processing time (s) vs density (%d matched EIDs)", r.cfg.DensityTimeEIDs),
		"density", "SS-E", "SS-V", "SS-E+V", "EDP-E", "EDP-V", "EDP-E+V")
	for _, d := range r.cfg.Densities {
		ss, edp, err := r.both(ctx, dsKeyDensity(d), densityMutator(d), r.cfg.DensityTimeEIDs)
		if err != nil {
			return nil, err
		}
		s.Add(d,
			ss.ETime.Seconds(), ss.VTime.Seconds(), (ss.ETime + ss.VTime).Seconds(),
			edp.ETime.Seconds(), edp.VTime.Seconds(), (edp.ETime + edp.VTime).Seconds())
	}
	return s, nil
}

// Table1 regenerates "Accuracy with respect to the number of matched EIDs".
func (r *Runner) Table1(ctx context.Context) (*metrics.Table, error) {
	header := []string{"Matched EIDs"}
	for _, n := range r.cfg.Table1Counts {
		header = append(header, fmt.Sprintf("%d", n))
	}
	t := metrics.NewTable("Table I: Accuracy vs number of matched EIDs", header...)
	ssRow, edpRow := []string{"SS"}, []string{"EDP"}
	for _, n := range r.cfg.Table1Counts {
		ss, edp, err := r.both(ctx, "base", nil, n)
		if err != nil {
			return nil, err
		}
		ssRow = append(ssRow, metrics.Pct(ss.Accuracy))
		edpRow = append(edpRow, metrics.Pct(edp.Accuracy))
	}
	t.AddRow(ssRow...)
	t.AddRow(edpRow...)
	return t, nil
}

// Table2 regenerates "Accuracy with respect to the density".
func (r *Runner) Table2(ctx context.Context) (*metrics.Table, error) {
	header := []string{"Density"}
	for _, d := range r.cfg.Table2Densities {
		header = append(header, metrics.F(d, 0))
	}
	t := metrics.NewTable("Table II: Accuracy vs density", header...)
	ssRow, edpRow := []string{"SS"}, []string{"EDP"}
	for _, d := range r.cfg.Table2Densities {
		ss, edp, err := r.both(ctx, dsKeyDensity(d), densityMutator(d), r.cfg.DensityTimeEIDs)
		if err != nil {
			return nil, err
		}
		ssRow = append(ssRow, metrics.Pct(ss.Accuracy))
		edpRow = append(edpRow, metrics.Pct(edp.Accuracy))
	}
	t.AddRow(ssRow...)
	t.AddRow(edpRow...)
	return t, nil
}

// Fig10 regenerates "Accuracy vs EID missing": one series per algorithm,
// with one column per missing rate over the matched-EID x axis.
func (r *Runner) Fig10(ctx context.Context) (ss, edp *metrics.Series, err error) {
	return r.missingSweep(ctx, "Fig 10", "E miss rate", r.cfg.EIDMissRates, "emiss", eidMissMutator)
}

// Fig11 regenerates "Accuracy vs VID missing": missed detections hurt more
// than missing devices, and matching refining keeps SS above EDP.
func (r *Runner) Fig11(ctx context.Context) (ss, edp *metrics.Series, err error) {
	return r.missingSweep(ctx, "Fig 11", "V miss rate", r.cfg.VIDMissRates, "vmiss", vidMissMutator)
}

func (r *Runner) missingSweep(ctx context.Context, figure, label string, rates []float64, keyPrefix string, mutator func(float64) func(*dataset.Config)) (ssSeries, edpSeries *metrics.Series, err error) {
	cols := make([]string, len(rates))
	for i, rate := range rates {
		cols[i] = fmt.Sprintf("%s=%.0f%%", label, rate*100)
	}
	ssSeries = metrics.NewSeries(figure+" (a): SS accuracy (%)", "matchedEIDs", cols...)
	edpSeries = metrics.NewSeries(figure+" (b): EDP accuracy (%)", "matchedEIDs", cols...)
	for _, n := range r.cfg.MissEIDCounts {
		ssYs := make([]float64, 0, len(rates))
		edpYs := make([]float64, 0, len(rates))
		for _, rate := range rates {
			key := fmt.Sprintf("%s=%.2f", keyPrefix, rate)
			ss, edp, err := r.both(ctx, key, mutator(rate), n)
			if err != nil {
				return nil, nil, err
			}
			ssYs = append(ssYs, ss.Accuracy*100)
			edpYs = append(edpYs, edp.Accuracy*100)
		}
		ssSeries.Add(float64(n), ssYs...)
		edpSeries.Add(float64(n), edpYs...)
	}
	return ssSeries, edpSeries, nil
}

func dsKeyDensity(d float64) string { return fmt.Sprintf("density=%g", d) }

// renderable is a result printable as both aligned text and markdown;
// metrics.Table and metrics.Series satisfy it.
type renderable interface {
	String() string
	Markdown() string
}

// results runs every experiment in paper order and returns the renderable
// outputs.
func (r *Runner) results(ctx context.Context) ([]renderable, error) {
	var out []renderable
	steps := []struct {
		name string
		run  func(context.Context) (renderable, error)
	}{
		{name: "Fig5", run: func(ctx context.Context) (renderable, error) { return r.Fig5(ctx) }},
		{name: "Fig6", run: func(ctx context.Context) (renderable, error) { return r.Fig6(ctx) }},
		{name: "Fig7", run: func(ctx context.Context) (renderable, error) { return r.Fig7(ctx) }},
		{name: "Fig8", run: func(ctx context.Context) (renderable, error) { return r.Fig8(ctx) }},
		{name: "Fig9", run: func(ctx context.Context) (renderable, error) { return r.Fig9(ctx) }},
		{name: "Table1", run: func(ctx context.Context) (renderable, error) { return r.Table1(ctx) }},
		{name: "Table2", run: func(ctx context.Context) (renderable, error) { return r.Table2(ctx) }},
	}
	for _, st := range steps {
		res, err := st.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", st.name, err)
		}
		out = append(out, res)
	}
	for _, fig := range []struct {
		name string
		run  func(context.Context) (*metrics.Series, *metrics.Series, error)
	}{
		{name: "Fig10", run: r.Fig10},
		{name: "Fig11", run: r.Fig11},
	} {
		ss, edp, err := fig.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", fig.name, err)
		}
		out = append(out, ss, edp)
	}
	return out, nil
}

// RunAll executes every experiment and writes the paper-style tables and
// series to w as aligned text, in paper order.
func (r *Runner) RunAll(ctx context.Context, w io.Writer) error {
	results, err := r.results(ctx)
	if err != nil {
		return err
	}
	for _, res := range results {
		if _, err := fmt.Fprintf(w, "%s\n", res); err != nil {
			return err
		}
	}
	return nil
}

// RunAllMarkdown is RunAll with markdown-table output, for EXPERIMENTS.md.
func (r *Runner) RunAllMarkdown(ctx context.Context, w io.Writer) error {
	results, err := r.results(ctx)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := metrics.FprintMarkdown(w, res); err != nil {
			return err
		}
	}
	return nil
}
