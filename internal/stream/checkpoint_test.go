package stream

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenImage is a small hand-built engine image with every field populated
// and every slice in canonical (sorted) order: two closed scenarios (one
// without a V side), one open bucket, one resolution.
func goldenImage() *checkpointFile {
	det := func(vid string, person int, fill byte) scenario.Detection {
		return scenario.Detection{VID: ids.VID(vid), TruePerson: person,
			Patch: feature.Patch{W: 2, H: 3, Pix: bytes.Repeat([]byte{fill}, 6)}}
	}
	return &checkpointFile{
		WindowMS: 1_000, LatenessMS: 250, Dim: 4,
		Targets:  []ids.EID{"e-1", "e-2"},
		Ingested: 9, LateDropped: 1, MaxTS: 2_400, MinOpen: 2,
		Scenarios: []scenario.Record{
			{Window: 0, Cell: 3, EIDs: []scenario.EIDAttr{{EID: "e-1", Attr: scenario.AttrInclusive}, {EID: "e-2", Attr: scenario.AttrVague}},
				Dets: []scenario.Detection{det("v-1", 1, 0x40), det("v-2", 2, 0xc0)}},
			{Window: 1, Cell: 5, EIDs: []scenario.EIDAttr{{EID: "e-2", Attr: scenario.AttrInclusive}}},
		},
		Buckets: []scenario.Record{
			{Window: 2, Cell: 3, EIDs: []scenario.EIDAttr{{EID: "e-1", Attr: scenario.AttrVague}}, Dets: []scenario.Detection{det("v-1", 1, 0x41)}},
		},
		Resolutions: []Resolution{{Seq: 1, EID: "e-2", VID: "v-2", Probability: 0.75, MajorityFrac: 1,
			RunnerUp: "v-1", Margin: 0.5, Acceptable: true, Window: 1}},
	}
}

func goldenConfig() Config {
	return Config{Targets: []ids.EID{"e-1", "e-2"}, WindowMS: 1_000, LatenessMS: 250, Dim: 4}
}

// goldenBytes reads a hex golden file, or rewrites it from got under -update.
func goldenBytes(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		var sb strings.Builder
		for i := 0; i < len(got); i += 32 {
			sb.WriteString(hex.EncodeToString(got[i:min(i+32, len(got))]))
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("golden %s is not hex: %v", path, err)
	}
	return want
}

// TestGoldenCheckpoint pins the version-5 byte layout: a format change must
// show up as a deliberate diff of testdata/checkpoint_v5.hex (regenerate
// with: go test ./internal/stream/ -run TestGoldenCheckpoint -update). The
// pinned file must also decode to the image, restore, and re-checkpoint to
// itself — through an Engine and through a Router, since a state has one
// image whichever processor holds it.
func TestGoldenCheckpoint(t *testing.T) {
	img := goldenImage()
	var buf bytes.Buffer
	if err := img.write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	golden := goldenBytes(t, "testdata/checkpoint_v5.hex", buf.Bytes())
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("checkpoint bytes changed (format change? regenerate with -update)\n got %x\nwant %x", buf.Bytes(), golden)
	}
	back, err := readCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("readCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(back, img) {
		t.Fatalf("decoded image differs\n got %+v\nwant %+v", back, img)
	}
	e, err := Restore(goldenConfig(), bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again := checkpointBytes(t, e); !bytes.Equal(again, golden) {
		t.Fatalf("re-checkpoint of the restored engine differs\n got %x\nwant %x", again, golden)
	}
	r, err := RestoreRouter(RouterConfig{Config: goldenConfig(), Shards: 2}, bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("RestoreRouter: %v", err)
	}
	defer r.Close()
	if again := routerCheckpointBytes(t, r); !bytes.Equal(again, golden) {
		t.Fatalf("re-checkpoint of the restored router differs from the golden\n got %x\nwant %x", again, golden)
	}
}

// gobEraV2Prefix is how a version-2 checkpoint began: the gob type
// descriptor of checkpointFile (message length, type id -65, "checkpointFile").
var gobEraV2Prefix = []byte{0xff, 0xa5, 0xff, 0x81, 0x03, 0x01, 0x01, 0x0e,
	'c', 'h', 'e', 'c', 'k', 'p', 'o', 'i', 'n', 't', 'F', 'i', 'l', 'e', 0x01, 0xff, 0x82, 0x00}

// TestRestoreRejectsOtherFormats: a gob-era file fails by its missing magic
// and a version-4 file by its number, each with an error that says what to
// do; a future version fails by number.
func TestRestoreRejectsOtherFormats(t *testing.T) {
	cfg := goldenConfig()
	for _, restore := range []func([]byte) error{
		func(b []byte) error { _, err := Restore(cfg, bytes.NewReader(b)); return err },
		func(b []byte) error {
			r, err := RestoreRouter(RouterConfig{Config: cfg, Shards: 2}, bytes.NewReader(b))
			if err == nil {
				r.Close()
			}
			return err
		},
	} {
		err := restore(gobEraV2Prefix)
		if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), "replay the log") {
			t.Errorf("gob-era file: err = %v, want ErrBadCheckpoint naming the format change", err)
		}
		prev := append([]byte(checkpointMagic), CheckpointVersion-1)
		if err := restore(prev); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", CheckpointVersion-1)) || !strings.Contains(err.Error(), "replay the log") {
			t.Errorf("previous version: err = %v, want ErrBadCheckpoint naming version %d and what to do", err, CheckpointVersion-1)
		}
		next := append([]byte(checkpointMagic), CheckpointVersion+1)
		if err := restore(next); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", CheckpointVersion+1)) {
			t.Errorf("future version: err = %v, want ErrBadCheckpoint naming version %d", err, CheckpointVersion+1)
		}
		if err := restore(nil); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("empty file: err = %v, want ErrBadCheckpoint", err)
		}
	}
}

// TestRestoreRejectsTruncationEverywhere cuts the golden file at every byte:
// each strict prefix is ErrBadCheckpoint, never a panic or a partial engine.
func TestRestoreRejectsTruncationEverywhere(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenImage().write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Restore(goldenConfig(), bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadCheckpoint", cut, len(full), err)
		}
	}
}

// TestRestoreRefusesHostileRecords: the scenario decoder refuses a patch
// that fails feature.Patch.Validate, an attribute that is neither inclusive
// nor vague and an EID list out of order, so such a checkpoint fails Restore
// with ErrBadCheckpoint instead of stalling the engine later.
func TestRestoreRefusesHostileRecords(t *testing.T) {
	for name, spoil := range map[string]func(*checkpointFile){
		"-16x-40 patch": func(cp *checkpointFile) {
			p := &cp.Scenarios[0].Dets[0].Patch
			p.W, p.H, p.Pix = -16, -40, make([]byte, 640)
		},
		"attribute 0":   func(cp *checkpointFile) { cp.Buckets[0].EIDs[0].Attr = 0 },
		"EIDs reversed": func(cp *checkpointFile) { slices.Reverse(cp.Scenarios[0].EIDs) },
	} {
		img := goldenImage()
		spoil(img)
		var buf bytes.Buffer
		if err := img.write(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if _, err := Restore(goldenConfig(), bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Restore err = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// TestRestoreRefusesInconsistentAnswers: an image's resolutions each answer
// a distinct target. An image that breaks this would restore an engine
// answering an EID twice or one it was never asked, so both restore entry
// points refuse it with ErrBadCheckpoint.
func TestRestoreRefusesInconsistentAnswers(t *testing.T) {
	for name, spoil := range map[string]func(*checkpointFile){
		"non-target":     func(cp *checkpointFile) { cp.Resolutions[0].EID = "e-9" },
		"resolved twice": resolveTwice,
	} {
		img := goldenImage()
		spoil(img)
		var buf bytes.Buffer
		if err := img.write(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if _, err := Restore(goldenConfig(), bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Restore err = %v, want ErrBadCheckpoint", name, err)
		}
		if r, err := RestoreRouter(RouterConfig{Config: goldenConfig(), Shards: 2}, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: RestoreRouter err = %v, want ErrBadCheckpoint", name, err)
			if err == nil {
				r.Close()
			}
		}
	}
}

// resolveTwice appends a second, unacceptable answer for the image's one
// resolved EID.
func resolveTwice(cp *checkpointFile) {
	again := cp.Resolutions[0]
	again.Seq, again.VID, again.Acceptable = 2, "", false
	cp.Resolutions = append(cp.Resolutions, again)
}

// checkpointWithCounts is a valid header announcing scenario and bucket
// counts the file does not contain.
func checkpointWithCounts(scenarios, buckets uint64) []byte {
	var hdr []byte
	for _, v := range []int64{1_000, 250, 4} { // window, lateness, dim
		hdr = wire.AppendVarint(hdr, v)
	}
	hdr = appendIDs(hdr, []ids.EID{"e-1", "e-2"})
	for range [4]int{} { // ingested, lateDropped, maxTS, minOpen
		hdr = wire.AppendVarint(hdr, 0)
	}
	hdr = wire.AppendUvarint(hdr, scenarios)
	hdr = wire.AppendUvarint(hdr, buckets)
	out := append([]byte(checkpointMagic), CheckpointVersion)
	return wire.AppendBytes(out, hdr)
}

// FuzzCheckpointDecode feeds hostile bytes to both restore entry points: no
// panic, every failure is ErrBadCheckpoint, and decoding never allocates
// more than a small multiple of the input (plus the reader's fixed buffers)
// — record counts and lengths are validated against bytes that are actually
// there before anything is sized by them.
func FuzzCheckpointDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := goldenImage().write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 4, 5, 6, 30, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut]) // truncated at and between record boundaries
	}
	f.Add(append(append([]byte{}, valid...), valid...))               // duplicated
	f.Add(checkpointWithCounts(1<<62, 1<<62))                         // counts with nothing behind them
	f.Add(append(checkpointWithCounts(0, 0), 0xff, 0xff, 0xff, 0x7f)) // a tail record longer than the cap allows to exist
	f.Add(gobEraV2Prefix)
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/3] ^= 0x55
	f.Add(flipped)
	twice := goldenImage()
	resolveTwice(twice) // well-formed bytes, answers restore refuses
	var twiceBuf bytes.Buffer
	if err := twice.write(&twiceBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(twiceBuf.Bytes())

	cfg := goldenConfig()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := readCheckpoint(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		// 128 KiB of fixed reader buffers, then at most ~20x: a decoded
		// struct is larger than its smallest encoding (an empty ShardBucket
		// is 4 bytes on disk and 64 in memory).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10+32*uint64(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("readCheckpoint: err = %v, want ErrBadCheckpoint", err)
			}
			return
		}
		// Whatever decodes must re-encode to a file that decodes to the
		// same image (compared as bytes: a hostile float may be NaN), and
		// must restore or be refused without panicking.
		var again, third bytes.Buffer
		if err := cp.write(&again); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := readCheckpoint(bytes.NewReader(again.Bytes()))
		if err != nil || back.write(&third) != nil || !bytes.Equal(again.Bytes(), third.Bytes()) {
			t.Fatalf("re-encoded image differs (err %v)", err)
		}
		if e, err := Restore(cfg, bytes.NewReader(in)); err == nil {
			e.Ingested()
		}
		if r, err := RestoreRouter(RouterConfig{Config: cfg, Shards: 2}, bytes.NewReader(in)); err == nil {
			r.Close()
		}
	})
}

// BenchmarkCheckpoint prices the checkpoint codec on a 100-person world's
// log, replayed outside the timer into an engine that is not flushed, so its
// image holds closed scenarios and open buckets both. encode writes the image
// into a reused buffer (Engine.Checkpoint); restore rebuilds an engine from
// it (Restore, split replay included). checkpoint_bytes is the image size.
func BenchmarkCheckpoint(b *testing.B) {
	dcfg := dataset.DefaultConfig()
	dcfg.NumPersons = 100
	dcfg.Density = 10
	dcfg.NumWindows = 12
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	_, obs, err := EventsFromDataset(ds, 1_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Targets:    ds.SampleEIDs(20, rand.New(rand.NewSource(5))),
		WindowMS:   1_000,
		LatenessMS: 250,
		Dim:        ds.Config.DescriptorDim(),
	}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			b.Fatal(err)
		}
	}
	var image bytes.Buffer
	if err := e.Checkpoint(&image); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := e.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "checkpoint_bytes")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Restore(cfg, bytes.NewReader(image.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(image.Len()), "checkpoint_bytes")
	})
}
