package main

import "testing"

// Detection rows must report the deadlock the tape commits; avoidance rows
// must intervene and never leave the graph deadlocked.
func TestPartitioningSemantics(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			r, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if !s.avoids {
				if !r.Deadlocked {
					t.Error("detection strategy missed the deadlock")
				}
				return
			}
			if !r.Avoided {
				t.Error("avoidance strategy did not intervene")
			}
			if r.Deadlocked {
				t.Error("avoidance strategy left the graph deadlocked")
			}
		})
	}
}

// Each hardware row must agree with its software twin on the outcome and
// cost fewer algorithm cycles.
func TestHardwareSoftwareEquivalence(t *testing.T) {
	ss := strategies()
	for _, pair := range [][2]strategy{{ss[0], ss[1]}, {ss[2], ss[3]}} {
		sw, hw := pair[0], pair[1]
		t.Run(hw.name, func(t *testing.T) {
			rs, err := sw.run()
			if err != nil {
				t.Fatal(err)
			}
			rh, err := hw.run()
			if err != nil {
				t.Fatal(err)
			}
			if rs.Deadlocked != rh.Deadlocked || rs.Avoided != rh.Avoided {
				t.Errorf("outcome divergence: %s %+v vs %s %+v", sw.name, rs, hw.name, rh)
			}
			if rh.Cycles >= rs.Cycles {
				t.Errorf("%s costs %d cycles, not below %s's %d", hw.name, rh.Cycles, sw.name, rs.Cycles)
			}
		})
	}
}
