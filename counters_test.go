package datacomp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	_ "github.com/datacomp/datacomp/internal/cluster"
	_ "github.com/datacomp/datacomp/internal/kvstore"
	_ "github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// TestServingCountersRegistered: every counter the serving benchmark takes
// deltas of (counterNames in bench/serving/run.go) is in telemetry.Default
// with its help from process start, before any store, transport or cluster
// is built. A reader that asks for a counter by name with empty help, as
// the benchmark does, must find it registered, not register it helpless.
// Run on its own (-run ServingCounters) it sees the registry as a process
// that has built nothing.
func TestServingCountersRegistered(t *testing.T) {
	help := map[string]string{}
	telemetry.Default.Each(func(name, h, _ string, m interface{}) {
		if _, ok := m.(*telemetry.Counter); ok {
			help[name] = h
		}
	})
	names := servingCounterNames(t)
	for _, name := range names {
		h, ok := help[name]
		switch {
		case !ok:
			t.Errorf("%s is not registered at process start", name)
		case h == "":
			t.Errorf("%s is registered with empty help", name)
		}
	}
}

// servingCounterNames reads the string literals of counterNames from the
// serving benchmark's source, so the list checked is the list it reads.
func servingCounterNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "bench/serving/run.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "counterNames" || len(spec.Values) != 1 {
			return true
		}
		ast.Inspect(spec.Values[0], func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, s)
			}
			return true
		})
		return false
	})
	// Guard the reader itself: the benchmark reads rpc, cluster and kvstore
	// counters, more than twenty of them.
	if len(names) < 20 {
		t.Fatalf("found %d counter names in bench/serving/run.go; the reader has drifted from the source", len(names))
	}
	return names
}
