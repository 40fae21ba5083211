package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedAPIHasCaller fails for every exported identifier declared in
// a non-test file under internal/ that no non-test file of this module or
// of the benchmark module uses. Such an identifier is code that only tests
// keep alive. The exceptions are listed, with a reason each, in
// testdata/api_allowlist.txt, and the list must stay exact: an entry whose
// identifier is gone, or has gained a non-test caller, fails too.
func TestExportedAPIHasCaller(t *testing.T) {
	allow, err := readAllowlist(filepath.Join("testdata", "api_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkExportedAPI(allow, ".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportedAPIChecker runs the checker over testdata/apigate, a module
// of its own that `go list ./...` does not reach, and shows each rule.
func TestExportedAPIChecker(t *testing.T) {
	allow := map[string]bool{"lib.Allowed": true, "lib.Live": true, "lib.Gone": true}
	problems, err := checkExportedAPI(allow, filepath.Join("testdata", "apigate"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range problems {
		name, rest, _ := strings.Cut(p, ": ")
		got[name] = rest
	}
	for _, tc := range []struct {
		name, want string // want "" means not reported
	}{
		{"lib.Unused", noCaller},
		{"lib.OnlyReceiver", noCaller},        // used only by its own receivers
		{"lib.OnlyReceiver.Method", noCaller}, // no caller either
		{"lib.Live", allowLive},
		{"lib.Gone", allowMissing},
		{"lib.Allowed", ""},
		{"lib.Used", ""},
		{"lib.Widget", ""},
		{"lib.Widget.Name", ""},   // shares its name with a called interface method
		{"lib.Widget.String", ""}, // satisfies fmt.Stringer
		{"lib.unexported", ""},
	} {
		if got[tc.name] != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got[tc.name], tc.want)
		}
		delete(got, tc.name)
	}
	for name, rest := range got {
		t.Errorf("unexpected report %s: %s", name, rest)
	}
}

const (
	noCaller     = "exported but no non-test file uses it"
	allowLive    = "allowlisted but has a non-test caller; delete its entry"
	allowMissing = "allowlisted but no longer declared; delete its entry"
)

// stdMethods name the methods that satisfy a standard-library interface:
// the standard library calls them, not this module.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// readAllowlist reads lines of the form `pkg.Recv.Name <category>: <reason>`;
// blank lines and lines starting with # are skipped.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if !strings.Contains(reason, ": ") {
			return nil, fmt.Errorf("%s:%d: want `pkg.Name <category>: <reason>`", path, n)
		}
		if allow[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = true
	}
	return allow, sc.Err()
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
}

// checkExportedAPI type-checks the non-test packages of each module rooted
// at dirs, the first module's packages first, and returns one line per
// exported identifier under internal/ that has no non-test use and is not
// allowlisted, and one per allowlist entry that is not exactly such an
// identifier.
func checkExportedAPI(allow map[string]bool, dirs ...string) ([]string, error) {
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	used := map[types.Object]bool{}
	ifaceNames := map[string]bool{}
	var internal []*types.Package
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				ifaceNames[o.Name()] = true
			}
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	for _, dir := range dirs {
		pkgs, err := goListDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range pkgs {
			if lp.Standard || checked[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(lp.ImportPath, fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			if strings.Contains("/"+lp.ImportPath+"/", "/internal/") {
				internal = append(internal, pkg)
			}
			receivers := receiverIdents(files)
			for id, obj := range info.Uses {
				if !receivers[id] {
					use(obj)
				}
			}
			for _, sel := range info.Selections {
				use(sel.Obj())
			}
		}
	}

	declared := map[string]bool{}
	var problems []string
	report := func(obj types.Object, name string) {
		declared[name] = true
		live := used[obj]
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			live = live || ifaceNames[fn.Name()] || stdMethods[fn.Name()]
		}
		listed := allow[name]
		switch {
		case live && listed:
			problems = append(problems, name+": "+allowLive)
		case !live && !listed:
			problems = append(problems, name+": "+noCaller)
		}
	}
	for _, pkg := range internal {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				report(obj, pkg.Name()+"."+n)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					report(m, pkg.Name()+"."+n+"."+m.Name())
				}
			}
		}
	}
	for name := range allow {
		if !declared[name] {
			problems = append(problems, name+": "+allowMissing)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// receiverIdents returns the identifiers inside method receivers, whose
// use of their own type is not a caller.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	ids := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ids[id] = true
				}
				return true
			})
		}
	}
	return ids
}

// goListDeps lists the packages of the module at dir and everything they
// import, each after its dependencies.
func goListDeps(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,Standard,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
