package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path"
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

// Doc budgets. DESIGN.md may not grow past its size when the budget was set
// (a ratchet: lower it as the document shrinks, on the way to 40 KB); the
// newest CHANGES.md entry, without its FOUND/MENDED lines, says what its
// change did in at most entryBudget bytes.
const (
	designBudget = 107_437
	entryBudget  = 1_536
)

// TestDocBudget holds DESIGN.md and the newest CHANGES.md entry to their
// budgets.
func TestDocBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	if fi, err := os.Stat(filepath.Join(root, "DESIGN.md")); err != nil {
		t.Fatal(err)
	} else if fi.Size() > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its budget of %d", fi.Size(), designBudget)
	}
	raw, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	first := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "- **PR") {
			first = i
		}
	}
	if first < 0 {
		t.Fatal("CHANGES.md has no \"- **PR\" entry")
	}
	size := 0
	for _, line := range lines[first:] {
		if !strings.HasPrefix(line, "FOUND:") && !strings.HasPrefix(line, "MENDED:") {
			size += len(line)
		}
	}
	if size > entryBudget {
		t.Errorf("the newest CHANGES.md entry (%.40q…) is %d bytes without its FOUND/MENDED lines, over its budget of %d",
			lines[first], size, entryBudget)
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
// module or of the nested bench/ module. And no doc may name a flag a binary
// does not define: a backticked -flag in a row of README's Commands table,
// and every -flag after a binary of cmd/ on a command line — fenced or
// backticked — in the three docs, must be one that binary's code defines.
func TestDocReferencesResolve(t *testing.T) {
	root, pkgs := loadModule(t)
	module, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	flags := binaryFlags(module, pkgs)
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
		fence, cont := false, ""
		for i, text := range strings.Split(string(data), "\n") {
			report := func(bin, flag string) {
				t.Errorf("%s:%d: %s defines no flag -%s", doc, i+1, bin, flag)
			}
			if fence {
				cont = checkCommandFlags(text, cont, flags, report)
			} else {
				checkTableFlags(text, flags, report)
				spans := strings.Split(text, "`")
				for j := 1; j < len(spans); j += 2 {
					checkCommandFlags(spans[j], "", flags, report)
				}
			}
			for _, cmd := range goCmdRE.FindAllStringSubmatch(text, -1) {
				for _, arg := range strings.Fields(cmd[1]) {
					if rel, ok := strings.CutPrefix(strings.Trim(arg, `'"`), "./"); ok && !isDir(strings.TrimSuffix(rel, "...")) {
						t.Errorf("%s:%d: go command path %s names no directory of the module or bench/", doc, i+1, arg)
					}
				}
			}
			if strings.HasPrefix(text, "```") {
				fence, cont = !fence, ""
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

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag: the name is their first argument, or the second for the
// …Var forms.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// binaryFlags maps each binary of the module — a package directly under
// cmd/ — to the flags its code defines, read off its type-checked calls into
// the flag package, plus -h and -help, which the flag package answers itself.
func binaryFlags(module string, pkgs []*Package) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, p := range pkgs {
		bin, ok := strings.CutPrefix(p.Path, module+"/cmd/")
		if !ok || strings.Contains(bin, "/") {
			continue
		}
		defined := map[string]bool{"h": true, "help": true}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiners[fn.Name()] {
					return true
				}
				arg := 0
				if strings.HasSuffix(fn.Name(), "Var") {
					arg = 1
				}
				if arg < len(call.Args) {
					if v := p.Info.Types[call.Args[arg]].Value; v != nil && v.Kind() == constant.String {
						defined[constant.StringVal(v)] = true
					}
				}
				return true
			})
		}
		out[bin] = defined
	}
	return out
}

// flagRE matches a flag token, -name or --name, with any =value; the name
// starts with a letter, so a negative number is not a flag.
var flagRE = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)(?:=.*)?$`)

// checkCommandFlags reports every flag that follows a binary of flags on a
// command line and is not one the binary defines. Pipes and && or ; end a
// command, # ends the line, and a go command other than go run invokes no
// binary. bin is the binary a line continued with a trailing backslash left
// open; the return value is the one this line leaves open.
func checkCommandFlags(line, bin string, flags map[string]map[string]bool, report func(bin, flag string)) string {
	fields := strings.Fields(line)
	for i, tok := range fields {
		switch {
		case strings.HasPrefix(tok, "#"):
			return ""
		case tok == "|" || tok == "||" || tok == "&&" || tok == ";" || tok == "&":
			bin = ""
			continue
		case tok == "go" && i+1 < len(fields) && fields[i+1] != "run":
			bin = "go" // go test/build/vet: the flags and paths are the go tool's
			continue
		}
		tok = strings.Trim(tok, `[](){}"',`)
		if m := flagRE.FindStringSubmatch(tok); m != nil {
			if defined, ok := flags[bin]; ok && !defined[m[1]] {
				report(bin, m[1])
			}
			continue
		}
		if _, ok := flags[path.Base(tok)]; ok && bin != "go" && !strings.HasSuffix(tok, "/") {
			bin = path.Base(tok)
		}
	}
	if strings.HasSuffix(strings.TrimSpace(line), `\`) {
		return bin
	}
	return ""
}

// checkTableFlags reports a backticked -flag in a table row whose first cell
// is a backticked binary (README's Commands table) that the binary does not
// define. A span may list alternatives (`-n/-eids/-all`) or carry a
// value (`-layout grid|hex`).
func checkTableFlags(line string, flags map[string]map[string]bool, report func(bin, flag string)) {
	spans := strings.Split(line, "`")
	if !strings.HasPrefix(line, "| `") || len(spans) < 3 {
		return
	}
	defined, ok := flags[spans[1]]
	if !ok {
		return
	}
	for j := 3; j < len(spans); j += 2 {
		fields := strings.Fields(spans[j])
		if len(fields) == 0 {
			continue
		}
		for _, alt := range strings.Split(fields[0], "/") {
			if m := flagRE.FindStringSubmatch(alt); m != nil && !defined[m[1]] {
				report(spans[1], m[1])
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
