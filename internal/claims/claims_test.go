package claims

import (
	"bytes"
	"testing"
)

func testManifest() *Manifest {
	return &Manifest{
		Module: "deltartos",
		Scenarios: []Scenario{
			{
				Name: "RunGrantDeadlockScenario",
				Claims: []Claim{
					{Task: "p3", Proc: 2, Resources: []string{"res:3", "res:1"}},
					{Task: "p1", Proc: 0, Resources: []string{"res:1", "res:0"}},
				},
			},
		},
	}
}

func TestJSONDeterministic(t *testing.T) {
	a, err := testManifest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testManifest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("manifest encoding not deterministic")
	}
	m, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	sc := m.Scenario("RunGrantDeadlockScenario")
	if sc == nil {
		t.Fatal("scenario lost in round trip")
	}
	// Normalized: claims sorted by task, resources ascending.
	if sc.Claims[0].Task != "p1" || sc.Claims[0].Resources[0] != "res:0" {
		t.Fatalf("not normalized: %+v", sc.Claims)
	}
}

func TestResourceClaims(t *testing.T) {
	m := testManifest()
	m.Normalize()
	rc := m.Scenarios[0].ResourceClaims()
	if got := rc[0]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("proc 0 claims = %v, want [0 1]", got)
	}
	if got := rc[2]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("proc 2 claims = %v, want [1 3]", got)
	}
}

func TestParseResource(t *testing.T) {
	if s, id, ok := ParseResource("long:7"); !ok || s != "long" || id != 7 {
		t.Fatalf("ParseResource(long:7) = %q %d %v", s, id, ok)
	}
	if _, _, ok := ParseResource("mutex:app.mu"); ok {
		t.Fatal("mutex key should not parse numerically")
	}
	if ResourceKey("res", 3) != "res:3" {
		t.Fatal("ResourceKey mismatch")
	}
}

func TestAuditWitness(t *testing.T) {
	m := testManifest()
	m.Normalize()
	sc := m.Scenario("RunGrantDeadlockScenario")

	held := []TaskClaim{{Task: "p1", Resources: []string{"res:0", "res:1"}}}
	if task, key, bad := sc.Witness(held); bad {
		t.Fatalf("unexpected witness %s/%s", task, key)
	}

	// p3 claims res:1 and res:3 only; the first uncovered hold is named.
	held = append(held, TaskClaim{Task: "p3", Resources: []string{"res:1", "res:2", "res:4"}})
	task, key, bad := sc.Witness(held)
	if !bad || task != "p3" || key != "res:2" {
		t.Fatalf("witness = %s/%s/%v, want p3/res:2/true", task, key, bad)
	}
	// A task the manifest does not know claims nothing.
	if task, key, bad := sc.Witness([]TaskClaim{{Task: "p9", Resources: []string{"res:0"}}}); !bad || task != "p9" || key != "res:0" {
		t.Fatalf("witness = %s/%s/%v, want p9/res:0/true", task, key, bad)
	}
}
