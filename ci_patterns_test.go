// CI filter freshness: every -run, -fuzz and -bench pattern a `go test` step
// in the CI workflow passes must still select a test its packages declare,
// or a renamed or deleted test silently drops out of a gate.
package datacomp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const ciWorkflow = ".github/workflows/ci.yml"

func TestCIRunPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for lineNo, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		at := strings.Index(trimmed, "go test ")
		if strings.HasPrefix(trimmed, "#") || at < 0 {
			continue
		}
		patterns, pkgs := parseGoTest(shellWords(trimmed[at+len("go test "):]))
		if len(patterns) == 0 {
			continue
		}
		names := map[string]bool{}
		for _, pkg := range pkgs {
			for _, dir := range expandPackage(t, pkg) {
				declaredTests(t, dir, names)
			}
		}
		for _, pat := range patterns {
			for _, branch := range splitTopLevel(pat, '|') {
				re, err := regexp.Compile(splitTopLevel(branch, '/')[0])
				if err != nil {
					t.Errorf("%s:%d: pattern %q: %v", ciWorkflow, lineNo+1, pat, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("%s:%d: %q in %q matches no test, fuzz target or benchmark declared in %v", ciWorkflow, lineNo+1, branch, pat, pkgs)
				}
				checked++
			}
		}
	}
	// Guard the parser itself: the workflow filters dozens of names.
	if checked < 20 {
		t.Fatalf("checked only %d pattern branches in %s; the command parser has drifted from the workflow", checked, ciWorkflow)
	}
}

// shellWords splits a shell command line into words, honouring single and
// double quotes, and stops at the first unquoted pipe, list or redirection
// operator.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.ContainsRune("|;&>", r):
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// valueFlags are the go test flags the workflow passes with a separate value.
var valueFlags = map[string]bool{
	"-run": true, "-fuzz": true, "-bench": true, "-count": true,
	"-fuzztime": true, "-fuzzminimizetime": true, "-benchtime": true, "-timeout": true,
}

// parseGoTest returns the selection patterns (-run, -fuzz, -bench) and the
// package arguments of one go test invocation's arguments. A pattern that
// matches nothing on purpose (^$) is left out.
func parseGoTest(args []string) (patterns, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, value, hasValue := strings.Cut(a, "=")
		if !hasValue && valueFlags[name] && i+1 < len(args) {
			i++
			value = args[i]
		}
		switch name {
		case "-run", "-fuzz", "-bench":
			if value != "^$" {
				patterns = append(patterns, value)
			}
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return patterns, pkgs
}

// splitTopLevel splits a regexp at sep where it is outside parentheses and
// brackets, the way go test splits -run at '/' (and alternation at '|').
func splitTopLevel(pat string, sep rune) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range pat {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, pat[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, pat[start:])
}

// expandPackage turns a package argument into the directories it names:
// "./x/..." is x and every directory below it.
func expandPackage(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "/...")
	root = filepath.Clean(root)
	if !recursive {
		return []string{root}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("expand %s: %v", pkg, err)
	}
	return dirs
}

// declaredTests adds to names every top-level Test, Fuzz and Benchmark
// function declared in dir's _test.go files.
func declaredTests(t *testing.T, dir string, names map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names[fn.Name.Name] = true
				}
			}
		}
	}
}

func matchesAny(re *regexp.Regexp, names map[string]bool) bool {
	for name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
