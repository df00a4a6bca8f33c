package races

import (
	"reflect"
	"testing"
)

// location returns the shadow record of loc, failing if it was never
// accessed.
func location(t *testing.T, a *Auditor, loc string) Report {
	t.Helper()
	for _, r := range a.Locations() {
		if r.Location == loc {
			return r
		}
	}
	t.Fatalf("%s never reached the auditor", loc)
	return Report{}
}

// One location walks virgin → exclusive → shared → shared-modified while its
// candidate lockset shrinks to the locks every access held; only the empty
// lockset in shared-modified is a race.
func TestEraserStateWalk(t *testing.T) {
	a := NewAuditor()
	step := func(want string, lockset ...string) {
		t.Helper()
		r := location(t, a, "x")
		if r.State != want {
			t.Errorf("state = %s, want %s", r.State, want)
		}
		if !reflect.DeepEqual(r.Lockset, lockset) {
			t.Errorf("%s: lockset = %v, want %v", want, r.Lockset, lockset)
		}
	}

	a.Acquire("A", "long:0")
	a.Acquire("A", "short:1")
	a.Access("A", "x", true)
	step("exclusive", "long:0", "short:1")
	a.Release("A", "short:1")
	a.Access("A", "x", false) // the owner again: still exclusive
	step("exclusive", "long:0")
	a.Release("A", "long:0")

	a.Acquire("B", "long:0")
	a.Access("B", "x", false) // a second task reads
	step("shared", "long:0")
	a.Release("B", "long:0")

	a.Acquire("C", "long:0")
	a.Acquire("C", "res:2")
	a.Access("C", "x", true) // a write while shared
	step("shared-modified", "long:0")
	if got := a.Reports(); len(got) != 0 {
		t.Fatalf("guarded location reported: %+v", got)
	}

	a.Access("D", "x", true) // unguarded write empties the lockset
	step("shared-modified")
	got := a.Reports()
	want := []Report{{Location: "x", State: "shared-modified", Tasks: []string{"A", "B", "C", "D"}, Reads: 2, Writes: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reports = %+v, want %+v", got, want)
	}
}

// A second task's write to an exclusive location goes straight to
// shared-modified, and a location one task owns never reports, however
// unguarded.
func TestEraserExclusiveWrites(t *testing.T) {
	a := NewAuditor()
	for i := 0; i < 3; i++ {
		a.Access("A", "solo", true)
	}
	a.Access("A", "y", false)
	a.Access("B", "y", true)
	if r := location(t, a, "solo"); r.State != "exclusive" || r.Writes != 3 {
		t.Errorf("solo = %+v, want exclusive with 3 writes", r)
	}
	if r := location(t, a, "y"); r.State != "shared-modified" {
		t.Errorf("y = %+v, want shared-modified", r)
	}
	if got := a.Reports(); len(got) != 1 || got[0].Location != "y" {
		t.Errorf("Reports = %+v, want only y", got)
	}
}
