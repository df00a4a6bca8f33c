// Package races defines the machine-readable guard manifest the races
// static-analysis pass emits — for every shared abstract location of a
// scenario, the inferred candidate lockset (its GuardedBy set) — plus the
// shadow-lockset auditor that runs the Eraser state machine (virgin →
// exclusive → shared → shared-modified) over lock transitions and
// instrumented accesses; app.RaceAudit drives it from a scenario's recorded
// trace.  Together they close the data-race half of the static↔runtime
// loop: the pass proves every shared location keeps a non-empty candidate
// lockset, and the auditor's reports must be a subset of the pass's flags.
//
// Lock identities use the analyzer's canonical keys: "long:0" (SoCLC long
// lock 0), "short:1", "res:2" (avoidance/detection resource 2) and
// "mutex:pkg.name".  Only stdlib imports are allowed here — the package is
// shared by the analysis passes, the scenarios' audit fold and the linter
// CLI.
package races

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Location is one shared abstract location of a scenario: a variable
// captured by several task closures, a struct field reached through one, a
// constant-index element, or package-level state.
type Location struct {
	// Name is the canonical display name: "deadlinesMet" (captured var),
	// "w.AllocFailures" (field path), "done[0]" (constant-index element)
	// or "pkg.Var" (package-level state).
	Name string `json:"name"`
	// Kind is "captured", "field", "element" or "global".
	Kind string `json:"kind"`
	// Tasks lists the accessing task closures, sorted.
	Tasks []string `json:"tasks"`
	// Reads and Writes count the distinct access sites by kind.
	Reads  int `json:"reads"`
	Writes int `json:"writes"`
	// Guards is the inferred candidate lockset: the locks held at every
	// access.  Empty with ≥2 tasks and ≥1 write means racy.
	Guards []string `json:"guards,omitempty"`
	// Declared is the //deltalint:guardedby(...) annotation, if any.
	Declared []string `json:"declared,omitempty"`
	// Racy marks an empty candidate lockset on a written multi-task
	// location (or a declared guard not held at some access).
	Racy bool `json:"racy,omitempty"`
	// Expected marks a racy location acknowledged by
	// //deltalint:race-expected; the diagnostic is suppressed but the
	// flag stays visible here for the runtime cross-check.
	Expected bool `json:"expected,omitempty"`
}

// Scenario groups the shared locations of one scenario function.
type Scenario struct {
	Name      string     `json:"name"`
	Locations []Location `json:"locations"`
}

// Manifest is the full guard report for a module.
type Manifest struct {
	Module    string     `json:"module,omitempty"`
	Scenarios []Scenario `json:"scenarios"`
}

// Normalize sorts scenarios, locations and lock lists so that encoding is
// deterministic.
func (m *Manifest) Normalize() {
	for i := range m.Scenarios {
		s := &m.Scenarios[i]
		for j := range s.Locations {
			sort.Strings(s.Locations[j].Tasks)
			sort.Strings(s.Locations[j].Guards)
			sort.Strings(s.Locations[j].Declared)
		}
		sort.Slice(s.Locations, func(a, b int) bool { return s.Locations[a].Name < s.Locations[b].Name })
	}
	sort.Slice(m.Scenarios, func(a, b int) bool { return m.Scenarios[a].Name < m.Scenarios[b].Name })
}

// JSON encodes the manifest deterministically (normalized, indented).
func (m *Manifest) JSON() ([]byte, error) {
	m.Normalize()
	return json.MarshalIndent(m, "", "  ")
}

// Parse decodes a manifest produced by JSON.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("races: parse manifest: %w", err)
	}
	m.Normalize()
	return &m, nil
}

// Scenario returns the named scenario, or nil.
func (m *Manifest) Scenario(name string) *Scenario {
	for i := range m.Scenarios {
		if m.Scenarios[i].Name == name {
			return &m.Scenarios[i]
		}
	}
	return nil
}

// Racy reports whether the scenario statically flags the named location
// (expected or not); it is the containment test the runtime cross-check
// uses.
func (s *Scenario) Racy(name string) bool {
	for i := range s.Locations {
		if s.Locations[i].Name == name {
			return s.Locations[i].Racy
		}
	}
	return false
}

// Eraser shadow states.
const (
	virgin = iota
	exclusive
	shared
	sharedModified
)

func stateName(st int) string {
	switch st {
	case virgin:
		return "virgin"
	case exclusive:
		return "exclusive"
	case shared:
		return "shared"
	case sharedModified:
		return "shared-modified"
	}
	return "unknown"
}

// shadow is the per-location Eraser record.
type shadow struct {
	state   int
	owner   string          // first-accessor task while exclusive
	refined bool            // lockset initialized (⊤ until first refinement)
	lockset map[string]bool // candidate lockset C(v)
	tasks   map[string]bool
	reads   int
	writes  int
}

// Report is one location's shadow verdict.
type Report struct {
	Location string
	State    string
	Tasks    []string
	Reads    int
	Writes   int
	Lockset  []string
}

// Auditor runs the Eraser lockset algorithm over one run's lock transitions
// (Acquire/Release, canonical keys) and location accesses, fed in the
// order they happened; Reports returns every location that reached
// shared-modified with an empty candidate lockset.  The simulator is a
// discrete-event machine (one task context runs at a time), so one event
// order exists and the output is deterministic.
type Auditor struct {
	held map[string]map[string]bool // task -> held lock keys
	locs map[string]*shadow
}

// NewAuditor returns an empty shadow-lockset auditor.
func NewAuditor() *Auditor {
	return &Auditor{held: map[string]map[string]bool{}, locs: map[string]*shadow{}}
}

// Acquire books that task now holds the lock with the given canonical key.
func (a *Auditor) Acquire(task, lock string) {
	set, ok := a.held[task]
	if !ok {
		set = map[string]bool{}
		a.held[task] = set
	}
	set[lock] = true
}

// Release books that task dropped the lock.
func (a *Auditor) Release(task, lock string) {
	delete(a.held[task], lock)
}

// Access runs one instrumented location access through the state machine,
// refining the location's candidate lockset with task's current held set.
func (a *Auditor) Access(task, loc string, write bool) {
	s, ok := a.locs[loc]
	if !ok {
		s = &shadow{state: virgin, tasks: map[string]bool{}}
		a.locs[loc] = s
	}
	s.tasks[task] = true
	if write {
		s.writes++
	} else {
		s.reads++
	}
	// Candidate lockset: ⊤ until the first access, then the intersection of
	// the held sets of every access.
	if !s.refined {
		s.refined = true
		s.lockset = map[string]bool{}
		for k := range a.held[task] {
			s.lockset[k] = true
		}
	} else {
		for k := range s.lockset {
			if !a.held[task][k] {
				delete(s.lockset, k)
			}
		}
	}
	switch s.state {
	case virgin:
		s.state = exclusive
		s.owner = task
	case exclusive:
		if task != s.owner {
			if write {
				s.state = sharedModified
			} else {
				s.state = shared
			}
		}
	case shared:
		if write {
			s.state = sharedModified
		}
	}
}

// report builds the Report for one location.
func (s *shadow) report(name string) Report {
	r := Report{Location: name, State: stateName(s.state), Reads: s.reads, Writes: s.writes}
	for t := range s.tasks {
		r.Tasks = append(r.Tasks, t)
	}
	sort.Strings(r.Tasks)
	for k := range s.lockset {
		r.Lockset = append(r.Lockset, k)
	}
	sort.Strings(r.Lockset)
	return r
}

// Reports returns the race verdicts: every instrumented location that
// reached shared-modified with an empty candidate lockset, sorted by name.
func (a *Auditor) Reports() []Report {
	var out []Report
	for name, s := range a.locs {
		if s.state == sharedModified && len(s.lockset) == 0 {
			out = append(out, s.report(name))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Location < out[j].Location })
	return out
}

// Locations returns the shadow record of every instrumented location,
// sorted by name (for tests and diagnostics).
func (a *Auditor) Locations() []Report {
	var out []Report
	for name, s := range a.locs {
		out = append(out, s.report(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Location < out[j].Location })
	return out
}
