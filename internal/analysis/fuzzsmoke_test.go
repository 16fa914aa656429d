package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzSmokeLine is the one shape a `make fuzz-smoke` recipe line may
// take: fuzz one anchored target in one package directory.
var fuzzSmokeLine = regexp.MustCompile(`^\t\$\(GO\) test -run '\^\$\$' -fuzz '\^(Fuzz\w*)\$\$' -fuzztime \$\(FUZZ_TIME\) (\.\S*)$`)

// TestFuzzSmokeListsEveryTarget keeps the Makefile's fuzz-smoke recipe
// equal to the module's fuzz targets. `go test -fuzz` on a package
// without a matching target prints "no fuzz tests to fuzz" and exits
// 0, so a stale line would pass silently, and a target missing from the
// recipe is never fuzzed.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(moduleDir, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	declared, err := declaredFuzzTargets(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets in the module; the walk is broken")
	}
	for _, p := range fuzzSmokeProblems(string(makefile), declared) {
		t.Error(p)
	}

	// The guard itself, on a recipe built from the declared targets: a
	// planted stale line and a dropped line must each be reported.
	line := func(target string) string {
		dir, name, _ := strings.Cut(target, " ")
		return fmt.Sprintf("\t$(GO) test -run '^$$' -fuzz '^%s$$' -fuzztime $(FUZZ_TIME) ./%s\n", name, dir)
	}
	recipe := "fuzz-smoke:\n"
	for _, d := range declared {
		recipe += line(d)
	}
	if got := fuzzSmokeProblems(recipe, declared); len(got) != 0 {
		t.Errorf("recipe of exactly the declared targets: problems = %q, want none", got)
	}
	if got := fuzzSmokeProblems(recipe+line("internal/bdc FuzzGone"), declared); len(got) != 1 || !strings.Contains(got[0], "FuzzGone") {
		t.Errorf("planted stale line: problems = %q, want one naming FuzzGone", got)
	}
	if got := fuzzSmokeProblems(strings.Replace(recipe, line(declared[0]), "", 1), declared); len(got) != 1 || !strings.Contains(got[0], declared[0]) {
		t.Errorf("dropped line: problems = %q, want one naming %s", got, declared[0])
	}
}

// fuzzSmokeProblems compares the fuzz-smoke recipe in makefile with the
// declared targets, each "dir Name" with dir relative to the module
// root, and describes every difference.
func fuzzSmokeProblems(makefile string, declared []string) []string {
	var problems []string
	listed := map[string]int{}
	inRecipe := false
	for _, line := range strings.Split(makefile, "\n") {
		if !inRecipe {
			inRecipe = line == "fuzz-smoke:"
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		m := fuzzSmokeLine.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("fuzz-smoke recipe line %q is not `$(GO) test -run '^$$' -fuzz '^FuzzX$$' -fuzztime $(FUZZ_TIME) ./dir`", line))
			continue
		}
		listed[filepath.ToSlash(filepath.Clean(m[2]))+" "+m[1]]++
	}
	if !inRecipe {
		return append(problems, "Makefile has no fuzz-smoke target")
	}
	want := map[string]bool{}
	for _, d := range declared {
		want[d] = true
		if listed[d] == 0 {
			problems = append(problems, fmt.Sprintf("fuzz target %s is not in the fuzz-smoke recipe", d))
		}
	}
	keys := make([]string, 0, len(listed))
	for k := range listed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case !want[k]:
			problems = append(problems, fmt.Sprintf("fuzz-smoke lists %s, which no test file in that directory declares", k))
		case listed[k] > 1:
			problems = append(problems, fmt.Sprintf("fuzz-smoke lists %s %d times", k, listed[k]))
		}
	}
	return problems
}

// declaredFuzzTargets returns every `func FuzzX(*testing.F)` in the
// module's test files as "dir FuzzX", skipping what the go tool skips
// (testdata, and directories starting with "." or "_").
func declaredFuzzTargets(moduleDir string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleDir, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") && takesTestingF(fn) {
				out = append(out, filepath.ToSlash(rel)+" "+fn.Name.Name)
			}
		}
		return nil
	})
	return out, err
}

func takesTestingF(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
