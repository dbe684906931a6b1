package tga_test

import (
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/tgatest"
)

// TestReusedGeneratorMatchesFresh feeds one generator instance a view,
// then views that are not supersets of it — a shrunk seed set and an
// unrelated one — and the first view again. Every emission must equal a
// fresh generator's on the same view: a reused generator serves any
// view, which is what lets tga.Generate and NewViewSource share one
// instance (and exercises 6Tree's rebuild when a span shrinks).
func TestReusedGeneratorMatchesFresh(t *testing.T) {
	seeds := streamSeeds()
	drop := ip6.MustParsePrefix("2001:db8:2:1::/64")
	var shrunk []ip6.Addr
	for _, a := range seeds {
		if !drop.Contains(a) {
			shrunk = append(shrunk, a)
		}
	}
	a := tga.SeedViewOf(seeds)
	views := []struct {
		name string
		v    *tga.SeedView
	}{
		{"A", a},
		{"shrunk", tga.SeedViewOf(shrunk)},
		{"A again", a},
		{"unrelated", tga.SeedViewOf(tgatest.IncrementalPool())},
		{"A last", tga.SeedViewOf(seeds)},
	}
	for _, tc := range tgas {
		reused := tc.mk()
		t.Run(reused.Name(), func(t *testing.T) {
			for _, step := range views {
				got := tgatest.EmitView(reused, step.v, tc.budget)
				want := tgatest.EmitView(tc.mk(), step.v, tc.budget)
				if len(want) == 0 {
					t.Fatalf("view %s: fresh generator emitted nothing — test exercised no candidates", step.name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("view %s: reused emission diverges from fresh (%d vs %d candidates)",
						step.name, len(got), len(want))
				}
			}
		})
	}
}
