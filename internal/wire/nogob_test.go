package wire

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"testing"
)

// TestNoGobOnTheRecordPaths keeps encoding/gob imports out of the module:
// the records it writes — shard rpc frames, checkpoints, spill records,
// world files — are this package's fixed encoding, whose determinism holds
// by construction (sorted slices, fixed encodings), and one gob import, with
// its map-order encoding, would quietly end that. The nested bench/ module
// and testdata directories are not the module's code.
func TestNoGobOnTheRecordPaths(t *testing.T) {
	const root = "../.."
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (path == filepath.Join(root, "bench") || d.Name() == "testdata" || d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		files++
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files; is ../.. the module root?", files)
	}
}
