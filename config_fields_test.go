package whopay

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"whopay/internal/core"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/load"
)

// Configuration that cannot express a state nobody runs: every field of the
// stack's configuration structs must be set by some caller in the module —
// a workload, a load scenario, the simulator, an example, a command, or a
// test — and every internal package must have a non-test importer outside
// itself. A field nothing sets is a branch nothing runs.

// configStructs are the configuration types whose fields are checked.
var configStructs = []reflect.Type{
	reflect.TypeOf(core.BrokerConfig{}),
	reflect.TypeOf(core.PeerConfig{}),
	reflect.TypeOf(load.WorldConfig{}),
	reflect.TypeOf(replica.Config{}),
	reflect.TypeOf(dht.ClusterConfig{}),
}

// unsetFieldExemptions lists the fields allowed to go unset, with reasons.
var unsetFieldExemptions = map[string]string{
	"load.WorldConfig.Host": "a bind address is a deployment setting; every in-tree world binds the loopback default",
}

// testOnlyPackages lists the internal packages only tests import, with
// reasons.
var testOnlyPackages = map[string]string{
	"internal/wal/crashfs": "the crash suite's fault-injecting filesystem",
}

// TestConfigFieldsAreSet parses every Go file in the module (bench/
// included) and fails on any field of configStructs that no composite
// literal names and no assignment sets, and on any internal package that
// no non-test file outside it imports.
//
// An assignment counts when it stores through a variable of the struct's
// type: a parameter, a receiver, or a local declared with the type or
// built from a literal of it or a call returning it. The declaring
// package's own default filling — v.F assigned under an if whose condition
// reads v.F — does not count, and neither does a store into an entity's
// private copy (p.cfg.F), which is not a variable of the type.
func TestConfigFieldsAreSet(t *testing.T) {
	s := scanModule(t)
	var unset []string
	for _, typ := range configStructs {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path.Base(typ.PkgPath()) + "." + typ.Name() + "." + f.Name
			if _, ok := unsetFieldExemptions[name]; !ok && !s.set[typeKey(typ)+"."+f.Name] {
				unset = append(unset, name)
			}
		}
	}
	var orphans []string
	for pkg := range s.internal {
		rel := strings.TrimPrefix(pkg, s.module+"/")
		if _, ok := testOnlyPackages[rel]; !ok && !s.imported[pkg] {
			orphans = append(orphans, rel)
		}
	}
	sort.Strings(unset)
	sort.Strings(orphans)
	for _, name := range unset {
		t.Errorf("%s is set by no caller: delete it, or set it where it is run", name)
	}
	for _, rel := range orphans {
		t.Errorf("%s is imported by no non-test file outside it: delete it", rel)
	}
}

func typeKey(typ reflect.Type) string { return typ.PkgPath() + "." + typ.Name() }

// srcFile is one parsed file and the names its type expressions resolve in.
type srcFile struct {
	*ast.File
	pkg      string            // import path of the file's directory
	external bool              // package x_test: bare names are not pkg's
	imports  map[string]string // local name → import path
}

type moduleScan struct {
	module   string
	fields   map[string]map[string]bool // "pkg.Type" → field names
	aliases  map[string]string          // "pkg.Alias" → "pkg.Type"
	results  map[string]string          // function name → returned config type
	set      map[string]bool            // "pkg.Type.Field"
	internal map[string]bool            // internal packages with non-test files
	imported map[string]bool            // packages a non-test file outside them imports
}

func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatalf("run from the module root: %v", err)
	}
	s := &moduleScan{fields: map[string]map[string]bool{}, aliases: map[string]string{},
		results: map[string]string{}, set: map[string]bool{},
		internal: map[string]bool{}, imported: map[string]bool{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			s.module = strings.TrimSpace(rest)
		}
	}
	for _, typ := range configStructs {
		s.fields[typeKey(typ)] = map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			s.fields[typeKey(typ)][typ.Field(i).Name] = true
		}
	}

	var files []*srcFile
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && p != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := &srcFile{File: af, pkg: s.module, external: strings.HasSuffix(af.Name.Name, "_test"), imports: map[string]string{}}
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			f.pkg += "/" + dir
		}
		test := strings.HasSuffix(p, "_test.go")
		if !test && strings.HasPrefix(f.pkg, s.module+"/internal/") {
			s.internal[f.pkg] = true
		}
		for _, imp := range af.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			f.imports[local] = ip
			if !test && ip != f.pkg {
				s.imported[ip] = true
			}
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The facade re-exports the config types under aliases, and callers
	// build configs from functions returning them: resolve both first.
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Assign.IsValid() && !f.external {
						s.aliases[f.pkg+"."+ts.Name.Name] = f.typeName(ts.Type)
					}
				}
			case *ast.FuncDecl:
				if r := d.Type.Results; r != nil && len(r.List) == 1 {
					if key := s.configType(f, r.List[0].Type); key != "" {
						s.results[d.Name.Name] = key
					}
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f.File, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if key := s.configType(f, n.Type); key != "" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								s.set[key+"."+id.Name] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					s.scanAssignments(f, n)
				}
			}
			return true
		})
	}
	return s
}

// typeName names the type a type expression refers to, "pkg.Name", or "".
func (f *srcFile) typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.typeName(e.X)
	case *ast.Ident:
		if !f.external {
			return f.pkg + "." + e.Name
		}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
			return f.imports[x.Name] + "." + e.Sel.Name
		}
	}
	return ""
}

// configType resolves a type expression to one of configStructs, or "".
func (s *moduleScan) configType(f *srcFile, e ast.Expr) string {
	key := f.typeName(e)
	for s.aliases[key] != "" {
		key = s.aliases[key]
	}
	if s.fields[key] == nil {
		return ""
	}
	return key
}

// scanAssignments marks the fields fd stores through variables of a config
// type, skipping the declaring package's default filling.
func (s *moduleScan) scanAssignments(f *srcFile, fd *ast.FuncDecl) {
	vars := map[string]string{} // variable → config type
	declare := func(fl *ast.FieldList) {
		for _, field := range fl.List {
			if key := s.configType(f, field.Type); key != "" {
				for _, n := range field.Names {
					vars[n.Name] = key
				}
			}
		}
	}
	valueType := func(e ast.Expr) string {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		switch e := e.(type) {
		case *ast.CompositeLit:
			return s.configType(f, e.Type)
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				return s.results[sel.Sel.Name]
			}
			if id, ok := e.Fun.(*ast.Ident); ok {
				return s.results[id.Name]
			}
		}
		return ""
	}
	// ref returns "v.F" and v's config type when e is field F of a
	// config-typed variable v.
	ref := func(e ast.Expr) (string, string) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && s.fields[vars[id.Name]][sel.Sel.Name] {
				return id.Name + "." + sel.Sel.Name, vars[id.Name]
			}
		}
		return "", ""
	}
	// defaulted reports whether an enclosing if's condition reads r.
	defaulted := func(stack []ast.Node, r string) bool {
		for _, n := range stack {
			if ifs, ok := n.(*ast.IfStmt); ok {
				found := false
				ast.Inspect(ifs.Cond, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if got, _ := ref(e); got == r {
							found = true
						}
					}
					return !found
				})
				if found {
					return true
				}
			}
		}
		return false
	}
	store := func(stack []ast.Node, lhs ast.Expr) {
		r, key := ref(lhs)
		if r == "" || key[:strings.LastIndexByte(key, '.')] == f.pkg && defaulted(stack, r) {
			return
		}
		s.set[key+r[strings.IndexByte(r, '.'):]] = true
	}

	if fd.Recv != nil {
		declare(fd.Recv)
	}
	declare(fd.Type.Params)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			declare(n.Type.Params)
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if n.Type != nil {
					vars[id.Name] = s.configType(f, n.Type)
				} else if i < len(n.Values) {
					vars[id.Name] = valueType(n.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) {
					vars[id.Name] = valueType(n.Rhs[i])
				} else {
					store(stack, lhs)
				}
			}
		case *ast.IncDecStmt:
			store(stack, n.X)
		}
		return true
	})
}
