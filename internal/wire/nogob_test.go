package wire

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestNoGobOnTheRecordPaths keeps encoding/gob from coming back to the
// packages whose bytes this package defines: determinism there holds by
// construction (sorted slices, fixed encodings), and one gob import — with
// its map-order encoding — would quietly end that.
func TestNoGobOnTheRecordPaths(t *testing.T) {
	for _, dir := range []string{".", "../stream", "../shardrpc"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (err %v)", dir, err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parse %s: %v", file, err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					t.Errorf("%s imports encoding/gob", file)
				}
			}
		}
	}
}
