package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzParseClasses: a spec ParseClasses accepts yields classes the planner
// can run — unique non-empty names, every bound finite and positive — and
// Tenants carries their names, weights and order to the router; a spec it
// rejects is an error, never a panic. The 520-class seed derives a queue
// bound of 0.1·4^519 = +Inf for its first class.
func FuzzParseClasses(f *testing.F) {
	long := make([]string, 520)
	for i := range long {
		long[i] = fmt.Sprintf("c%d:10ms", i)
	}
	for _, seed := range []string{
		strings.Join(long, ","),
		"gold:250ms:4:2s,silver:500ms:2:500ms,best:1s:1:100ms",
		"gold:250ms:4:2s,silver:500ms:2,best:1s:1",
		"gold:250ms,silver:500ms,best:1s",
		"",
		":10ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		classes, err := ParseClasses(spec)
		if err != nil {
			return
		}
		if len(classes) == 0 {
			t.Fatalf("%q: accepted with no classes", spec)
		}
		seen := map[string]bool{}
		for _, c := range classes {
			if c.Name == "" || seen[c.Name] {
				t.Fatalf("%q: empty or duplicate name %q", spec, c.Name)
			}
			seen[c.Name] = true
			for _, b := range []float64{c.TargetP95S, c.MaxQueueS} {
				if !(b > 0) || math.IsInf(b, 0) {
					t.Fatalf("%q: class %q has bound %v", spec, c.Name, b)
				}
			}
		}
		tenants := Tenants(classes)
		if len(tenants) != len(classes) {
			t.Fatalf("%q: %d tenants for %d classes", spec, len(tenants), len(classes))
		}
		for i, c := range classes {
			if tenants[i].Name != c.Name || tenants[i].Weight != c.Weight {
				t.Fatalf("%q: tenant %d = %+v, class %+v", spec, i, tenants[i], c)
			}
		}
	})
}
