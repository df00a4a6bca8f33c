// Package claims defines the machine-readable resource-claims manifest the
// claims static-analysis pass emits, plus the subset test a runtime
// held-set must pass against it (the held-sets themselves are folded from a
// scenario's recorded trace, app.HeldSets).  Together they close the
// static-to-runtime loop the paper's avoidance scheme depends on: the
// DAA/DAU (and a Banker's-algorithm backend) avoid deadlock only if every
// process's maximal claim is declared up front, and the manifest is exactly
// that declaration, inferred from the task bodies at compile time.
//
// Resource identities use the analyzer's canonical keys: "long:0" (SoCLC
// long lock 0), "short:1", "res:2" (avoidance/detection resource 2) and
// "mutex:pkg.name".  Only stdlib imports are allowed here — the package is
// shared by the analysis passes, the scenarios' audit fold and the linter
// CLI.
package claims

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Claim is one task's maximal static claim set within a scenario.
type Claim struct {
	// Task is the runtime task name (rtos.Task.Name) when the analyzer
	// could fold it to a constant, else a scope label.
	Task string `json:"task"`
	// Proc is the resource-space process id the task requests under, or -1
	// when the task performs no constant-folded resource ops.
	Proc int `json:"proc"`
	// Resources lists the canonical resource keys, ascending.
	Resources []string `json:"resources"`
}

// Scenario groups the claims of one scenario function.
type Scenario struct {
	Name   string  `json:"name"`
	Claims []Claim `json:"claims"`
}

// Manifest is the full claims report for a module.
type Manifest struct {
	Module    string     `json:"module,omitempty"`
	Scenarios []Scenario `json:"scenarios"`
}

// Normalize sorts scenarios, claims and resource lists so that encoding is
// deterministic.
func (m *Manifest) Normalize() {
	for i := range m.Scenarios {
		s := &m.Scenarios[i]
		for j := range s.Claims {
			sort.Strings(s.Claims[j].Resources)
		}
		sort.Slice(s.Claims, func(a, b int) bool { return s.Claims[a].Task < s.Claims[b].Task })
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
		return nil, fmt.Errorf("claims: parse manifest: %w", err)
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

// ResourceKey builds the canonical key for one resource space and id.
func ResourceKey(space string, id int) string {
	return space + ":" + strconv.Itoa(id)
}

// ParseResource splits a canonical key into its space and numeric id.  ok
// is false for non-numeric identities (mutex keys).
func ParseResource(key string) (space string, id int, ok bool) {
	i := strings.IndexByte(key, ':')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, false
	}
	return key[:i], n, true
}

// ResourceClaims extracts the Banker/DAU configuration from a scenario: for
// every claim with a known process id, the ascending list of "res"-space
// resource ids it may request.
func (s *Scenario) ResourceClaims() map[int][]int {
	out := map[int][]int{}
	for _, c := range s.Claims {
		if c.Proc < 0 {
			continue
		}
		for _, key := range c.Resources {
			if space, id, ok := ParseResource(key); ok && space == "res" {
				out[c.Proc] = append(out[c.Proc], id)
			}
		}
	}
	var procs []int
	for p := range out {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		sort.Ints(out[p])
	}
	return out
}

// Covers reports whether the scenario claims resource key for task; it is
// the subset test of the runtime cross-check.
func (s *Scenario) Covers(task, key string) bool {
	for _, c := range s.Claims {
		if c.Task != task {
			continue
		}
		for _, r := range c.Resources {
			if r == key {
				return true
			}
		}
	}
	return false
}

// TaskClaim is one task's observed held-set, sorted.
type TaskClaim struct {
	Task      string
	Resources []string
}

// Witness returns the first observed (task, resource) hold, in the order
// given, that the scenario's claims do not cover; ok is false when the
// runtime held-sets are a subset of the manifest (the desired state).
func (s *Scenario) Witness(observed []TaskClaim) (task, key string, ok bool) {
	for _, tc := range observed {
		for _, r := range tc.Resources {
			if !s.Covers(tc.Task, r) {
				return tc.Task, r, true
			}
		}
	}
	return "", "", false
}
