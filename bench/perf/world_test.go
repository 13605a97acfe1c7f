package perf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/scenario"
	"evmatching/internal/stream"
)

// shortLog builds the short paper world's displaced, sentinel-terminated log.
func shortLog(t *testing.T, seed int64) (*dataset.Dataset, []stream.Observation) {
	t.Helper()
	ds, obs, _, _, err := streamWorld(&env{}, paperConfig(seed, true), seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds, WithSentinel(obs)
}

// writeWorld renders every scenario of the world canonically: EIDs in sorted
// order, detections in store order with their pixels. (Dataset.Write is gob
// over maps, whose byte order is not fixed.)
func writeWorld(out *bytes.Buffer, ds *dataset.Dataset) {
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		e := ds.Store.E(id)
		fmt.Fprintf(out, "%d/%d:", e.Window, e.Cell)
		for _, eid := range e.SortedEIDs() {
			fmt.Fprintf(out, " %s=%d", eid, e.EIDs[eid])
		}
		if v := ds.Store.V(id); v != nil {
			for _, d := range v.Detections {
				fmt.Fprintf(out, " %s/%d/%x", d.VID, d.TruePerson, d.Patch.Pix)
			}
		}
		out.WriteByte('\n')
	}
}

func TestEqualSeedsGiveByteEqualInputs(t *testing.T) {
	build := func(seed int64) []byte {
		var out bytes.Buffer
		ds, obs := shortLog(t, seed)
		writeWorld(&out, ds)
		bodies, err := PostBodies(obs)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			out.Write(b)
		}
		cfg, err := sparseConfig(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		writeWorld(&out, sparse)
		for _, e := range sparse.SampleEIDs(sparseTargets(true), rand.New(rand.NewSource(seed))) {
			out.WriteString(string(e))
		}
		served, err := dataset.Generate(serveConfig(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		writeWorld(&out, served)
		return out.Bytes()
	}
	a, b, other := build(roundSeed(3, 0)), build(roundSeed(3, 0)), build(roundSeed(3, 1))
	if !bytes.Equal(a, b) {
		t.Error("equal seeds generated different inputs")
	}
	if bytes.Equal(a, other) {
		t.Error("different rounds of one seed generated the same inputs")
	}
}

// The closing-observation mapper must agree with the engine on a displaced
// log: the same open-window frontier after every observation, and every
// resolution attributed to the observation whose ingestion emitted it.
func TestClosingIndexAgreesWithEngine(t *testing.T) {
	ds, obs := shortLog(t, 5)
	closedBy, frontier := ClosingIndex(obs)
	eng, err := stream.NewEngine(streamConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i, o := range obs {
		accepted, err := eng.Ingest(o)
		if err != nil || !accepted {
			t.Fatalf("observation %d: accepted=%v err=%v; a displaced log must drop nothing", i, accepted, err)
		}
		wm, ok := eng.Watermark()
		if !ok {
			t.Fatalf("observation %d: no watermark", i)
		}
		want := 0
		if wm >= 0 {
			want = int(wm / windowMS)
		}
		if frontier[i] != want {
			t.Fatalf("observation %d: mapper's frontier %d, engine watermark %d ms gives %d", i, frontier[i], wm, want)
		}
		res := eng.Resolutions()
		for _, r := range res[emitted:] {
			if got, ok := closedBy[r.Window]; !ok || got != i {
				t.Fatalf("resolution of %s (window %d) was emitted at observation %d, mapper says %d (found=%v)", r.EID, r.Window, i, got, ok)
			}
		}
		emitted = len(res)
	}
	if emitted == 0 {
		t.Fatal("the log resolved no target; the test checked nothing")
	}
	if eng.OpenWindows() != 1 {
		t.Errorf("%d windows still open after the sentinel, want only the sentinel's own", eng.OpenWindows())
	}
}

func TestDisplaceKeepsEveryObservation(t *testing.T) {
	_, obs, _, _, err := streamWorld(&env{}, paperConfig(9, true), 9)
	if err != nil {
		t.Fatal(err)
	}
	ordered := 0
	for i := 1; i < len(obs); i++ {
		if obs[i].TS >= obs[i-1].TS {
			ordered++
		}
		if late := obs[i-1].TS - obs[i].TS; late > displaceMaxMS {
			t.Fatalf("observation %d arrives %d ms late, above the %d ms cap", i, late, displaceMaxMS)
		}
	}
	if ordered == len(obs)-1 {
		t.Error("Displace left the log in timestamp order")
	}
}
