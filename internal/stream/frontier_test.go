package stream

import (
	"reflect"
	"slices"
	"testing"
)

// TestFrontier pins the event-time decisions both processors share, at the
// edges where two hand-written copies once could have disagreed.
func TestFrontier(t *testing.T) {
	type step struct {
		ts        int64
		admitted  bool
		target    int  // close target observe reports (when it closes)
		closes    bool // whether observe asks for a close
		watermark int64
	}
	for _, tc := range []struct {
		name              string
		window, lateness  int64
		steps             []step
		open              []int // after the steps
		ingested, dropped int64
		flushTarget       int
	}{
		{
			name: "nothing observed", window: 1000, lateness: 250,
			flushTarget: 0,
		},
		{
			// The watermark is negative until maxTS passes the lateness;
			// floorDiv keeps a pre-epoch watermark from closing window 0.
			name: "pre-epoch watermark never closes window 0", window: 1000, lateness: 250,
			steps: []step{
				{ts: 0, admitted: true, watermark: -250},
				{ts: 100, admitted: true, watermark: -150},
				{ts: 1249, admitted: true, watermark: 999},
			},
			open: []int{0, 1}, ingested: 3, flushTarget: 2,
		},
		{
			// Window 0 closes exactly when the watermark reaches 1000, and
			// from that observation on ts 999 is late and ts 1000 is not.
			name: "late exactly at the boundary", window: 1000, lateness: 250,
			steps: []step{
				{ts: 999, admitted: true, watermark: 749},
				{ts: 1250, admitted: true, target: 1, closes: true, watermark: 1000},
				{ts: 999, admitted: false, watermark: 1000},
				{ts: 1000, admitted: true, watermark: 1000},
			},
			open: []int{1}, ingested: 4, dropped: 1, flushTarget: 2,
		},
		{
			// Only a strictly greater timestamp advances the watermark, so a
			// run of equal timestamps asks for one close, not one each.
			name: "equal timestamps", window: 1000, lateness: 0,
			steps: []step{
				{ts: 2000, admitted: true, target: 2, closes: true, watermark: 2000},
				{ts: 2000, admitted: true, watermark: 2000},
				{ts: 2000, admitted: true, watermark: 2000},
			},
			open: []int{2}, ingested: 3, flushTarget: 3,
		},
		{
			// A jump closes several windows at once; the straggler window in
			// between stays admissible until the watermark passes it.
			name: "jump over windows", window: 1000, lateness: 1500,
			steps: []step{
				{ts: 500, admitted: true, watermark: -1000},
				{ts: 4600, admitted: true, target: 3, closes: true, watermark: 3100},
				{ts: 3000, admitted: true, watermark: 3100},
				{ts: 2999, admitted: false, watermark: 3100},
			},
			open: []int{3, 4}, ingested: 4, dropped: 1, flushTarget: 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFrontier(tc.window, tc.lateness)
			if _, ok := f.watermark(); ok {
				t.Fatal("fresh frontier reports a watermark")
			}
			for i, s := range tc.steps {
				if got := f.admit(s.ts); got != s.admitted {
					t.Fatalf("step %d: admit(%d) = %v, want %v", i, s.ts, got, s.admitted)
				}
				if s.admitted {
					target, closes := f.observe(s.ts)
					if closes != s.closes || (closes && target != s.target) {
						t.Fatalf("step %d: observe(%d) = (%d, %v), want (%d, %v)", i, s.ts, target, closes, s.target, s.closes)
					}
					if closes {
						f.closeBelow(target)
					}
				}
				if wm, ok := f.watermark(); !ok || wm != s.watermark {
					t.Fatalf("step %d: watermark = (%d, %v), want %d", i, wm, ok, s.watermark)
				}
			}
			if !slices.Equal(f.open, tc.open) {
				t.Errorf("open windows %v, want %v", f.open, tc.open)
			}
			if f.ingested != tc.ingested || f.lateDropped != tc.dropped {
				t.Errorf("ingested/dropped = %d/%d, want %d/%d", f.ingested, f.lateDropped, tc.ingested, tc.dropped)
			}
			if got := f.flushTarget(); got != tc.flushTarget {
				t.Errorf("flushTarget = %d, want %d", got, tc.flushTarget)
			}
			// A flush closes everything, and a second one has nothing to do.
			f.closeBelow(f.flushTarget())
			if len(f.open) != 0 || f.flushTarget() != tc.flushTarget {
				t.Errorf("after flush: open %v, flushTarget %d, want none and %d", f.open, f.flushTarget(), tc.flushTarget)
			}
		})
	}
}

// TestFrontierRestore: the checkpoint header carries the four counters and
// nothing else; the open set comes back from the image's open buckets,
// whatever order and however many cells they list a window in.
func TestFrontierRestore(t *testing.T) {
	f := newFrontier(1000, 250)
	for _, ts := range []int64{100, 1100, 2300, 2400, 100} {
		if f.admit(ts) {
			if target, closes := f.observe(ts); closes {
				f.closeBelow(target)
			}
		}
	}
	var cp checkpointFile
	f.record(&cp)
	if cp.Ingested != 5 || cp.LateDropped != 1 || cp.MaxTS != 2400 || cp.MinOpen != 2 {
		t.Fatalf("recorded header %+v", cp)
	}
	cp.Buckets = []ShardBucket{{Window: 3, Cell: 1}, {Window: 2, Cell: 7}, {Window: 3, Cell: 0}, {Window: 2, Cell: 2}}
	got := newFrontier(1000, 250)
	got.restore(&cp)
	if !slices.Equal(got.open, []int{2, 3}) {
		t.Errorf("restored open windows %v, want [2 3]", got.open)
	}
	got.open, f.open = nil, nil
	if !reflect.DeepEqual(got, f) {
		t.Errorf("restored frontier %+v, want %+v", got, f)
	}
}
