package vfilter

import (
	"errors"
	"strings"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// badPatchWorld builds a store with one scenario whose second detection
// carries a malformed patch, so extraction fails partway through.
func badPatchWorld(t *testing.T) (*Filter, scenario.ID) {
	t.Helper()
	w := newWorld(t, 3)
	obs := w.gallery.Observe(0, 0.03, w.rng)
	dets := []scenario.Detection{
		{VID: ids.VIDLabel(0), Patch: feature.EncodePatch(obs, 1, w.rng)},
		{VID: ids.VIDLabel(1), Patch: feature.Patch{W: 2, H: 2, Pix: []byte{1}}},
		{VID: ids.VIDLabel(2), Patch: feature.EncodePatch(obs, 1, w.rng)},
	}
	v := &scenario.VScenario{Cell: 0, Window: 0, Detections: dets}
	id, err := w.store.Add(0, 0, []scenario.EIDAttr{{EID: eidOf(0), Attr: scenario.AttrInclusive}}, v)
	if err != nil {
		t.Fatal(err)
	}
	return newFilter(t, w, 0.5), id
}

// TestFeaturesCachedError: a failed extraction is computed once, counts the
// attempted extractions (the partial work really happened), and every later
// call — Features or Match — observes the same cached error without paying
// for or counting the extraction again.
func TestFeaturesCachedError(t *testing.T) {
	f, id := badPatchWorld(t)

	_, err := f.Features(id)
	if err == nil {
		t.Fatal("want extraction error")
	}
	if !errors.Is(err, feature.ErrBadPatch) {
		t.Errorf("error %v should wrap feature.ErrBadPatch", err)
	}
	if !strings.Contains(err.Error(), "detection 1") {
		t.Errorf("error %v should name the failing detection", err)
	}
	st := f.Stats()
	// One successful extraction plus the failed attempt.
	if st.Extractions != 2 {
		t.Errorf("Extractions after failure = %d, want 2 (attempts counted)", st.Extractions)
	}
	if st.ScenariosProcessed != 0 {
		t.Errorf("ScenariosProcessed after failure = %d, want 0", st.ScenariosProcessed)
	}

	_, err2 := f.Features(id)
	if err2 == nil || err2.Error() != err.Error() {
		t.Errorf("second Features call error = %v, want cached %v", err2, err)
	}
	if got := f.Stats().Extractions; got != 2 {
		t.Errorf("Extractions after cached retry = %d, want 2 (no double count)", got)
	}

	if _, err := f.Match(eidOf(0), []scenario.ID{id}, nil); err == nil {
		t.Error("Match over the failing scenario should surface the cached error")
	}
	if got := f.Stats().Extractions; got != 2 {
		t.Errorf("Extractions after Match on cached error = %d, want 2", got)
	}
}

// TestFeaturesMatrixViews pins the compatibility contract: Features returns
// one vector per detection, each a row view of the scenario's matrix.
func TestFeaturesMatrixViews(t *testing.T) {
	w := newWorld(t, 3)
	id := w.addScenario(t, 0, []int{0, 1, 2})
	f := newFilter(t, w, 0.5)
	feats, err := f.Features(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 3 {
		t.Fatalf("got %d feature vectors, want 3", len(feats))
	}
	for i, v := range feats {
		if len(v) != 64 {
			t.Errorf("feats[%d] dim = %d, want 64", i, len(v))
		}
	}
	again, err := f.Features(id)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0][0] != &feats[0][0] {
		t.Error("second Features call should return the same cached storage")
	}
}
