package marchgen_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose build instructions must match the tree: every
// `make <target>` they name is a Makefile target and every BENCH_*.json
// record they cite exists.
var hygieneDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// A make invocation in backticks or at the start of a (shell) line, so
	// prose such as "make the move inapplicable" does not count.
	makeRefRE    = regexp.MustCompile("(?m)(?:`|^(?:\\$ )?)make ([a-z][a-z0-9-]*)")
	benchFileRE  = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	makeTargetRE = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makePhonyRE  = regexp.MustCompile(`(?m)^\.PHONY:(.*)$`)
	fuzzFuncRE   = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
)

// makefile is the part of the Makefile the hygiene checks read.
type makefile struct {
	targets map[string]bool
	phony   map[string]bool
	recipes map[string]string // target → its recipe lines
}

func readMakefile(t *testing.T) makefile {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	mk := makefile{targets: map[string]bool{}, phony: map[string]bool{}, recipes: map[string]string{}}
	text := string(data)
	for _, m := range makePhonyRE.FindAllStringSubmatch(text, -1) {
		for _, name := range strings.Fields(m[1]) {
			mk.phony[name] = true
		}
	}
	var current string
	for _, line := range strings.Split(text, "\n") {
		if m := makeTargetRE.FindStringSubmatch(line); m != nil {
			current = m[1]
			mk.targets[current] = true
			continue
		}
		if strings.HasPrefix(line, "\t") && current != "" {
			mk.recipes[current] += line + "\n"
			continue
		}
		current = ""
	}
	return mk
}

// staleDocRefs lists each make target and BENCH_*.json record the document
// text names that the tree does not have.
func staleDocRefs(doc, text string, mk makefile) []string {
	var bad []string
	for _, m := range makeRefRE.FindAllStringSubmatch(text, -1) {
		if !mk.targets[m[1]] {
			bad = append(bad, fmt.Sprintf("%s: `make %s` is not a Makefile target", doc, m[1]))
		}
	}
	for _, name := range benchFileRE.FindAllString(text, -1) {
		if _, err := os.Stat(name); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %s is not in the tree", doc, name))
		}
	}
	return bad
}

func TestDocsNameExistingTargetsAndRecords(t *testing.T) {
	mk := readMakefile(t)
	for _, doc := range hygieneDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range staleDocRefs(doc, string(data), mk) {
			t.Error(msg)
		}
	}
}

// A doc that still points at a deleted target or record must fail the check.
func TestStaleDocRefsCatchesDeletedTarget(t *testing.T) {
	mk := readMakefile(t)
	doc := "Reproduce with `make no-such-target`, which rewrites BENCH_missing.json.\nmake no-such-target\n"
	if got := staleDocRefs("stale.md", doc, mk); len(got) != 3 {
		t.Errorf("stale doc: got %d findings %q, want 3", len(got), got)
	}
	if got := staleDocRefs("fine.md", "Run `make check`; conflicting orders make the move fail.", mk); len(got) != 0 {
		t.Errorf("current doc: got findings %q, want none", got)
	}
}

func TestMakefileTargetsArePhony(t *testing.T) {
	mk := readMakefile(t)
	for name := range mk.targets {
		if !mk.phony[name] {
			t.Errorf("Makefile target %q is missing from .PHONY", name)
		}
	}
	for name := range mk.phony {
		if !mk.targets[name] {
			t.Errorf(".PHONY lists %q, which is not a target", name)
		}
	}
}

// Every fuzz target in the module (perfbench/ is its own module) runs under
// `make fuzz`, in its own package.
func TestFuzzTargetsRunUnderMakeFuzz(t *testing.T) {
	recipe := readMakefile(t).recipes["fuzz"]
	if recipe == "" {
		t.Fatal("Makefile has no fuzz recipe")
	}
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if dir := filepath.Dir(path); dir != "." {
			pkg = "./" + filepath.ToSlash(dir) + "/"
		}
		for _, m := range fuzzFuncRE.FindAllStringSubmatch(string(data), -1) {
			found++
			want := fmt.Sprintf("-fuzz='^%s$$' -fuzztime 30s %s", m[1], pkg)
			if !strings.Contains(recipe, want) {
				t.Errorf("%s: %s is not in the make fuzz recipe (want a line with %q)", path, m[1], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz targets; the walk is broken")
	}
}
