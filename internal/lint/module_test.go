package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce sync.Once
	moduleRoot string
	modulePkgs []*Package
	moduleErr  error
)

// loadModule type-checks this repository once for every test that reads it.
func loadModule(t *testing.T) (string, []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	moduleOnce.Do(func() {
		if moduleRoot, moduleErr = filepath.Abs(filepath.Join("..", "..")); moduleErr == nil {
			modulePkgs, moduleErr = LoadModule(moduleRoot)
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	if len(modulePkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader lost the module", len(modulePkgs))
	}
	return moduleRoot, modulePkgs
}

// TestModuleIsLintClean: the pass suite over this repository itself reports
// nothing. It is the lint gate: `go test ./...` runs it.
func TestModuleIsLintClean(t *testing.T) {
	_, pkgs := loadModule(t)
	for _, f := range Run(pkgs) {
		t.Errorf("finding on clean tree: %s", f)
	}
}

// TestNoUntypedAtomics: non-test code reaches sync/atomic only through its
// typed values (atomic.Int64, atomic.Bool, …), never through the function
// API (AddInt64, LoadUint32, …). A typed atomic cannot be read or written
// plainly, so a field accessed atomically at one site and plainly at another
// — a data race the race detector finds only when the schedule occurs —
// cannot be written at all.
func TestNoUntypedAtomics(t *testing.T) {
	_, pkgs := loadModule(t)
	var found []string
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			found = append(found, fmt.Sprintf("%s: atomic.%s; use a sync/atomic typed value instead", pkg.Fset.Position(id.Pos()), fn.Name()))
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// docRefRE matches a backticked Go reference: pkg.Name, pkg.Type.Member or
// Type.Member, optionally called.
var docRefRE = regexp.MustCompile(`^([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*){1,2})(?:\(.*\))?$`)

// fileExts marks a backticked span as a file name (`router.go`,
// `BENCHMARK.json`) rather than a Go reference.
var fileExts = map[string]bool{"go": true, "md": true, "json": true}

// goCmdRE matches a go run, go test or go build command; its arguments run
// to the end of the line, a closing backtick or a shell comment.
var goCmdRE = regexp.MustCompile("\\bgo (?:run|test|build)\\b([^`#]*)")

// TestDocReferencesResolve: every backticked pkg.Name, pkg.Type.Member or
// Type.Member in README.md and DESIGN.md names something in the
// type-checked module, so a deletion cannot leave the docs describing code
// that is gone. A span whose first part is neither a module package nor a
// capitalised name (a local variable, a standard-library package), or that
// is a per-layer metric of BENCHMARK.json (`core.v_stage_s`), is not
// checked. Every ./… path of a go run, go test or go build command in those
// two and the verify skill, fenced or not, must name a directory of the
// module or of the nested bench/ module.
func TestDocReferencesResolve(t *testing.T) {
	root, pkgs := loadModule(t)
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	metric := make(map[string]bool)
	for _, m := range bench.PerLayer {
		metric[m.Name] = true
	}
	byName := make(map[string][]*types.Package)
	typesByName := make(map[string][]types.Object)
	for _, p := range pkgs {
		byName[p.Pkg.Name()] = append(byName[p.Pkg.Name()], p.Pkg)
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if obj, ok := scope.Lookup(name).(*types.TypeName); ok {
				typesByName[name] = append(typesByName[name], obj)
			}
		}
	}
	resolves := func(parts []string) bool {
		var roots []types.Object
		if ps, ok := byName[parts[0]]; ok {
			for _, p := range ps {
				if obj := p.Scope().Lookup(parts[1]); obj != nil {
					roots = append(roots, obj)
				}
			}
			parts = parts[2:]
		} else {
			roots, parts = typesByName[parts[0]], parts[1:]
		}
		for _, obj := range roots {
			for _, name := range parts {
				if obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, typePkg(obj.Type()), name); obj == nil {
					break
				}
			}
			if obj != nil {
				return true
			}
		}
		return false
	}
	isDir := func(rel string) bool {
		for _, base := range []string{root, filepath.Join(root, "bench")} {
			if fi, err := os.Stat(filepath.Join(base, rel)); err == nil && fi.IsDir() {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fence := false
		for i, text := range strings.Split(string(data), "\n") {
			for _, cmd := range goCmdRE.FindAllStringSubmatch(text, -1) {
				for _, arg := range strings.Fields(cmd[1]) {
					if rel, ok := strings.CutPrefix(strings.Trim(arg, `'"`), "./"); ok && !isDir(strings.TrimSuffix(rel, "...")) {
						t.Errorf("%s:%d: go command path %s names no directory of the module or bench/", doc, i+1, arg)
					}
				}
			}
			if strings.HasPrefix(text, "```") {
				fence = !fence
			}
			if fence || filepath.Base(doc) == "SKILL.md" {
				continue
			}
			spans := strings.Split(text, "`")
			for j := 1; j < len(spans); j += 2 {
				m := docRefRE.FindStringSubmatch(spans[j])
				if m == nil {
					continue
				}
				parts := append([]string{m[1]}, strings.Split(m[2], ".")[1:]...)
				_, isPkg := byName[parts[0]]
				first := parts[0][0]
				if fileExts[parts[len(parts)-1]] || metric[spans[j]] || !isPkg && (first < 'A' || first > 'Z') {
					continue
				}
				if !resolves(parts) {
					t.Errorf("%s:%d: `%s` names nothing in the module", doc, i+1, spans[j])
				}
			}
		}
	}
}

// typePkg is the package whose unexported members a lookup on t may see.
func typePkg(t types.Type) *types.Package {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Pkg()
	}
	return nil
}
