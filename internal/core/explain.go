package core

import (
	"context"
	"fmt"
	"io"

	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/vfilter"
)

// Explain runs the full pipeline for a single EID and writes a
// human-readable trace of the decision to w: the selected E-Scenario list
// (cell, window, crowd size), the per-scenario votes, and the final verdict
// with its margin. It is the investigator's "why was this the match?" tool.
func (m *Matcher) Explain(ctx context.Context, e ids.EID, w io.Writer) error {
	if e == ids.None {
		return ErrNoTargets
	}
	p, lists, err := m.splitStage(ctx, []ids.EID{e}, 0, nil, nil)
	if err != nil {
		return err
	}
	list := lists[0]
	fmt.Fprintf(w, "EID %s\n", e)
	stats := p.TreeStats()
	fmt.Fprintf(w, "E stage: %d scenarios selected (tree depth %d, %d recorded splits)\n",
		len(list), stats.Depth, stats.Recorded)
	for i, id := range list {
		dets := 0
		if v := m.ds.Store.V(id); v != nil {
			dets = len(v.Detections)
		}
		fmt.Fprintf(w, "  %d. scenario %-5d cell %-3d window %-3d (%d EIDs, %d detections)\n",
			i+1, id, m.ds.Store.Cell(id), m.ds.Store.Window(id), len(m.ds.Store.View(id).Ords), dets)
	}

	filter, err := vfilter.New(m.ds.Store, vfilter.Config{
		Extractor:      feature.Extractor{Dim: m.ds.Config.DescriptorDim(), WorkFactor: m.opts.WorkFactor},
		AcceptMajority: m.opts.AcceptMajority,
	})
	if err != nil {
		return err
	}
	res, err := filter.Match(e, list, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "V stage votes:\n")
	for i, v := range res.PerScenario {
		mark := " "
		if v == res.VID && v != ids.NoVID {
			mark = "*"
		}
		fmt.Fprintf(w, "  %d. %s %s\n", i+1, mark, orNone(v))
	}
	fmt.Fprintf(w, "verdict: %s  (vote %.0f%%, probability %.4g", orNone(res.VID), res.MajorityFrac*100, res.Probability)
	if res.RunnerUp != ids.NoVID {
		fmt.Fprintf(w, ", runner-up %s at margin %.2fx", res.RunnerUp, res.Margin)
	}
	fmt.Fprintf(w, ")\n")
	if truth := m.ds.TruthVID(e); truth != ids.NoVID {
		verdict := "WRONG"
		if truth == res.VID {
			verdict = "correct"
		}
		fmt.Fprintf(w, "ground truth: %s (%s)\n", truth, verdict)
	}
	return nil
}

func orNone(v ids.VID) string {
	if v == ids.NoVID {
		return "(none)"
	}
	return string(v)
}
