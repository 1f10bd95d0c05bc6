package persistbarriers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// surfaceAllowlist names the exports and Config fields that only tests
// use, each with a test that needs it. Only oracles (reference answers a
// test compares the product against), plant hooks, what fuzz decoders
// draw, and bounds a test shrinks belong here: anything else with no user
// goes.
var surfaceAllowlist = map[string]string{
	// Oracles. DisableReadFast forces the mailbox path, the reference the
	// fuzzer's live runner holds the GET fast path to.
	"internal/cache.Cache.DirtyLines":             "internal/cache.TestEpochBookkeepingConsistency",
	"internal/recovery.CheckAll":                  "internal/machine.TestTrimHistory",
	"internal/pmkv.ShardedConfig.DisableReadFast": "internal/pmkv.TestReadFastPathServesDurableWrites",
	// Plant hook.
	"internal/epoch.Table.PlantShortRing": "internal/machine.TestPlantedShortRing",
	// Bounds a test shrinks: a full batch, a busy mailbox, a stalled
	// client's write deadline.
	"internal/pmkv.ShardedConfig.MaxBatch": "internal/pmkv.TestGatherTakesWhatIsQueued",
	"internal/pmkv.ShardedConfig.Mailbox":  "internal/pmkv.TestCrashWithBusyMailbox",
	"internal/server.Options.WriteTimeout": "internal/server.TestDrainWithStalledPipelinedClient",
}

// TestEveryExportHasAUser is ROADMAP aim 2's rule as a gate: every
// exported func, method, type, const and var outside benchmark/, every
// field of a *Config, *Options or *Spec struct and every flag a command
// defines must have a user, or an allowlist entry naming the test that
// needs it. A non-test file anywhere in the repository (benchmark/,
// cmd/ and examples/ included) that refers to an export is a user, and
// so is an interface the method's type satisfies or a selector promoted
// through an embedded field — unless no command reaches the file's
// package: a package that only tests import, directly or through other
// such packages, is test code outside a test file, and its references
// count for nothing (so its own exports have no user either). A Config field's user must set it; filling
// in its default does not count. A flag's user is a README code block or
// code span, a script, a CI step, a test or benchmark/ that passes it.
// Every exported field must also be read: by non-test code other than as
// an assignment target or a composite-literal key, or by encoding/json
// through a tag that names it. There is no exception to that rule.
func TestEveryExportHasAUser(t *testing.T) {
	start := time.Now()
	s, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	unused := map[string]bool{}
	for _, name := range s.unused {
		unused[name] = true
		test, ok := surfaceAllowlist[name]
		if !ok {
			t.Errorf("%s has no user outside tests: delete it, or allowlist it with the test that needs it", name)
			continue
		}
		if !tests[test][lastWord(name)] {
			t.Errorf("allowlist: %s names %s, which is not a test that refers to %s", name, test, lastWord(name))
		}
	}
	for name := range surfaceAllowlist {
		if !unused[name] {
			t.Errorf("allowlist: %s is not an entry without a user; drop it from the list", name)
		}
	}
	for _, name := range s.writeOnly {
		t.Errorf("%s is written but never read outside tests: read it, delete it, or tag it for JSON", name)
	}
	t.Logf("%d exports, %d Config fields, %d flags; %d allowlisted; %.2fs",
		s.exports, s.fields, s.flags, len(surfaceAllowlist), time.Since(start).Seconds())
	t.Logf("%d exported fields written and never read", len(s.writeOnly))
}

// TestSurfaceGateCatchesFixture runs the gate's scan on a planted tree:
// an export no file uses, one only a test uses, one only a package that
// only a test imports uses, a String method, an embedded field, a flag
// nobody passes, and a struct whose fields are read, emitted as JSON, and
// written but read only by a test. It must report exactly the first
// three, that package's own export and the flag as unused, and the last
// field as write-only.
func TestSurfaceGateCatchesFixture(t *testing.T) {
	s, err := scanSurface(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cmd/tool -unpassed", "internal/harness.Drive", "internal/lib.HarnessOnly", "internal/lib.Orphan", "internal/lib.TestOnly"}
	if fmt.Sprint(s.unused) != fmt.Sprint(want) {
		t.Fatalf("unused = %q, want %q", s.unused, want)
	}
	if want := []string{"internal/lib.Tally.Unread"}; fmt.Sprint(s.writeOnly) != fmt.Sprint(want) {
		t.Fatalf("write-only = %q, want %q", s.writeOnly, want)
	}
}

func lastWord(name string) string {
	return name[strings.LastIndexAny(name, ".-")+1:]
}

// surface is what scanSurface found: how many entries of each kind it
// listed, the sorted names of those without a user, and the sorted names
// of the exported fields non-test code writes but never reads. Exports
// and fields read "dir.Name" or "dir.Type.Member" (dir relative to the
// root), flags "dir -name".
type surface struct {
	exports, fields, flags int
	unused                 []string
	writeOnly              []string
}

// pkgSrc is one directory's non-test Go package.
type pkgSrc struct {
	rel, path string
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
}

// loader type-checks every package under a root once, each before its
// importers, and hands the standard library to the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	byPkg map[string]*pkgSrc
	busy  map[string]bool
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p := l.byPkg[path]
	if p == nil {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p.pkg == nil {
		if l.busy[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		l.busy[path] = true
		p.info = &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// walkFiles calls fn with the slash path, relative to root, of every file
// outside testdata and hidden directories.
func walkFiles(root string, fn func(rel string) error) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			rel, _ := filepath.Rel(root, p)
			return fn(filepath.ToSlash(rel))
		case p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		}
		return nil
	})
}

// loadPackages parses the non-test files of every package under root and
// type-checks them all. A package's import path is root's module path
// joined with its directory, which holds for benchmark/'s nested module
// too.
func loadPackages(root string) ([]*pkgSrc, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(p)
		}
	}
	l := &loader{
		fset:  token.NewFileSet(),
		byPkg: map[string]*pkgSrc{},
		busy:  map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	var pkgs []*pkgSrc
	err = walkFiles(root, func(rel string) error {
		dir, name := path.Split(rel)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(root, dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir = path.Dir(rel)
		p := l.byPkg[path.Join(modPath, dir)]
		if p == nil {
			p = &pkgSrc{rel: dir, path: path.Join(modPath, dir)}
			l.byPkg[p.path] = p
			pkgs = append(pkgs, p)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if _, err := l.Import(p.path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// scanSurface lists root's exports, Config fields and flags and finds
// those without a user.
func scanSurface(root string) (*surface, error) {
	pkgs, err := loadPackages(root)
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	read := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// Only commands and what they import, directly or not, are users: a
	// package no command's non-test code reaches serves tests alone.
	reached := map[*types.Package]bool{}
	var reach func(*types.Package)
	reach = func(pkg *types.Package) {
		if !reached[pkg] {
			reached[pkg] = true
			for _, imp := range pkg.Imports() {
				reach(imp)
			}
		}
	}
	for _, p := range pkgs {
		if p.pkg.Name() == "main" {
			reach(p.pkg)
		}
	}
	seen := map[*types.Package]bool{}
	var walkScope func(*types.Package)
	walkScope = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walkScope(imp)
		}
	}
	for _, p := range pkgs {
		if !reached[p.pkg] {
			continue
		}
		walkScope(p.pkg)
		markSets(p, set)
		markReads(p, read)
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range p.info.Selections {
			// Every embedded field a promoted selector passes through.
			t := sel.Recv()
			idx := sel.Index()
			for _, i := range idx[:len(idx)-1] {
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					break
				}
				used[origin(st.Field(i))] = true
				t = st.Field(i).Type()
			}
		}
	}
	satisfies := func(tn *types.TypeName, m *types.Func) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
				return true
			}
		}
		return false
	}
	s := &surface{}
	note := func(name string, ok bool) {
		if !ok {
			s.unused = append(s.unused, name)
		}
	}
	for _, p := range pkgs {
		if p.rel == "benchmark" || strings.HasPrefix(p.rel, "benchmark/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				s.exports++
				note(p.rel+"."+name, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						s.exports++
						note(p.rel+"."+name+"."+m.Name(), used[m])
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					s.exports++
					note(p.rel+"."+name+"."+m.Name(), used[m] || satisfies(tn, m))
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			config := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && !read[f] && !jsonEmits(st.Tag(i)) {
					s.writeOnly = append(s.writeOnly, p.rel+"."+name+"."+f.Name())
				}
				switch {
				case config:
					s.fields++
				case f.Embedded() && f.Exported():
					s.exports++
				default:
					continue
				}
				note(p.rel+"."+name+"."+f.Name(), set[f] || !config && used[f])
			}
		}
	}
	passed, err := passedFlags(root)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.rel, "cmd/") {
			continue
		}
		for _, name := range definedFlags(p) {
			s.flags++
			note(p.rel+" -"+name, passed[path.Base(p.rel)+" -"+name])
		}
	}
	sort.Strings(s.unused)
	sort.Strings(s.writeOnly)
	return s, nil
}

// markSets records the fields p's files set: as a composite-literal
// key, as the target of an assignment or increment, or by taking their
// address. An assignment under an if that tests the same field fills in
// a default; it sets nothing.
func markSets(p *pkgSrc, set map[types.Object]bool) {
	field := func(e ast.Expr) (*ast.Ident, types.Object) {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			id = e.Sel
		case *ast.Ident:
			id = e
		default:
			return nil, nil
		}
		if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
			return id, v.Origin()
		}
		return nil, nil
	}
	defaults := map[*ast.Ident]bool{}
	mark := func(e ast.Expr) {
		if id, obj := field(e); obj != nil && !defaults[id] {
			set[obj] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				tested := map[types.Object]bool{}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if e, ok := c.(ast.Expr); ok {
						if _, obj := field(e); obj != nil {
							tested[obj] = true
						}
					}
					return true
				})
				for _, st := range n.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok {
						for _, l := range as.Lhs {
							if id, obj := field(l); obj != nil && tested[obj] {
								defaults[id] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					mark(l)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.KeyValueExpr:
				mark(n.Key)
			}
			return true
		})
	}
}

// markReads records the fields p's files read: every use of a field but
// as the target of an assignment or increment, or as a composite-literal
// key. Indexing a field, taking its address or passing it on reads it.
func markReads(p *pkgSrc, read map[types.Object]bool) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		case *ast.Ident:
			writes[e] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					target(l)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				target(n.Key)
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}
}

// jsonEmits reports whether a field's tag names it in encoding/json's
// output: encoding/json reads it whenever its struct is marshalled.
func jsonEmits(tag string) bool {
	name, ok := reflect.StructTag(tag).Lookup("json")
	return ok && name != "-"
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// definedFlags lists the names a command package registers through the
// flag package.
func definedFlags(p *pkgSrc) []string {
	var names []string
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			for _, a := range call.Args {
				if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names = append(names, name)
					break
				}
			}
			return true
		})
	}
	return names
}

var (
	flagToken = regexp.MustCompile(`(?:^|[\s"'\x60(\[])-{1,2}([a-z][a-z0-9-]*)`)
	codeSpan  = regexp.MustCompile("`[^`]+`")
)

// passedFlags returns "cmd -name" for every flag some text under root
// passes to a command it names. The texts are: one logical line
// (trailing backslashes joined) of a fenced code block of README.md, of
// a script under scripts/ or of .github/workflows/ci.yml; an inline code
// span of README.md, which passes to every command when it names none;
// and the string literals of a test file or of a Go file under
// benchmark/, which pass to the commands the file names (a test under
// cmd/X also to X).
func passedFlags(root string) (map[string]bool, error) {
	ents, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	var cmds []string
	for _, e := range ents {
		if e.IsDir() {
			cmds = append(cmds, e.Name())
		}
	}
	passed := map[string]bool{}
	mark := func(args, context string, orAll bool) {
		var to []string
		for _, c := range cmds {
			if strings.Contains(context, c) {
				to = append(to, c)
			}
		}
		if len(to) == 0 && orAll {
			to = cmds
		}
		for _, m := range flagToken.FindAllStringSubmatch(args, -1) {
			for _, c := range to {
				passed[c+" -"+m[1]] = true
			}
		}
	}
	// code marks each logical line of text; in markdown only those inside
	// fences, and it returns the rest.
	code := func(text string, markdown bool) string {
		var prose strings.Builder
		fenced, logical := !markdown, ""
		for _, line := range strings.Split(text, "\n") {
			if markdown && strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				prose.WriteString(line + "\n")
				continue
			}
			logical += line
			if !strings.HasSuffix(line, `\`) {
				mark(logical, logical, false)
				logical = ""
			}
		}
		mark(logical, logical, false)
		return prose.String()
	}
	read := func(rel string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if os.IsNotExist(err) {
			return "", nil
		}
		return string(b), err
	}
	readme, err := read("README.md")
	if err != nil {
		return nil, err
	}
	for _, span := range codeSpan.FindAllString(code(readme, true), -1) {
		mark(span, span, true)
	}
	ci, err := read(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		return nil, err
	}
	code(ci, false)
	err = walkFiles(root, func(rel string) error {
		script := strings.HasPrefix(rel, "scripts/")
		if !script && !strings.HasSuffix(rel, "_test.go") && !(strings.HasPrefix(rel, "benchmark/") && strings.HasSuffix(rel, ".go")) {
			return nil
		}
		text, err := read(rel)
		if err != nil || script {
			code(text, false)
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), rel, text, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var lits strings.Builder
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				lits.WriteString(" " + s)
			}
			return true
		})
		if strings.HasPrefix(rel, "cmd/") {
			text += " " + path.Base(path.Dir(rel))
		}
		mark(lits.String(), text, false)
		return nil
	})
	return passed, err
}

// testFuncs maps each test and fuzz target of the tree ("dir.TestX") to
// the identifiers it refers to.
func testFuncs(root string) (map[string]map[string]bool, error) {
	tests := map[string]map[string]bool{}
	err := walkFiles(root, func(rel string) error {
		if !strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fd.Name.Name, "Test") && !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ids := map[string]bool{}
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ids[id.Name] = true
				}
				return true
			})
			tests[path.Dir(rel)+"."+fd.Name.Name] = ids
		}
		return nil
	})
	return tests, err
}
