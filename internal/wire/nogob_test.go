package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// gobDefaults are net/rpc's entry points that speak its default codec, gob:
// a client or server built by any of them exchanges reflection-driven gob
// instead of this package's frames.
var gobDefaults = map[string]bool{
	"Dial": true, "DialHTTP": true, "DialHTTPPath": true, "NewClient": true,
	"ServeConn": true, "HandleHTTP": true, "Accept": true,
}

// TestNoGobOnTheRecordPaths keeps gob out of every byte the module writes:
// its records — rpc frames between processes, checkpoints, spill records,
// world files — are this package's fixed encoding, whose determinism holds
// by construction (sorted slices, fixed encodings), and gob, with its
// map-order encoding and no version byte, would quietly end that. So no file
// may import encoding/gob, and no non-test file may call net/rpc's gob
// defaults (gobDefaults, or a ServeConn method): a process fleet speaks
// Protocol frames through rpc.NewClientWithCodec and ServeCodec. Test files
// may, to impersonate peers from gob-era builds. The nested bench/ module
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
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rpcName := ""
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == "encoding/gob":
				t.Errorf("%s imports encoding/gob", path)
			case p == "net/rpc" && imp.Name != nil:
				rpcName = imp.Name.Name
			case p == "net/rpc":
				rpcName = "rpc"
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, _ := sel.X.(*ast.Ident)
			if x != nil && rpcName != "" && x.Name == rpcName && gobDefaults[sel.Sel.Name] || sel.Sel.Name == "ServeConn" {
				t.Errorf("%s: %s speaks net/rpc's gob codec; serve and dial with a wire.Protocol's codecs",
					fset.Position(sel.Pos()), types.ExprString(sel))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files; is ../.. the module root?", files)
	}
}
