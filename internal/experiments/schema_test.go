package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"deltartos/internal/trace"
)

// counterFamilies extracts the counter families from the schema table of a
// document: the rows under the "| counter | unit | source event |" header,
// each shaped "| `family` | unit | source |".
func counterFamilies(t *testing.T, doc string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\|")
	var families []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "| counter | unit | source event |":
			in = true
		case in && strings.HasPrefix(line, "|---"):
		case in:
			m := row.FindStringSubmatch(line)
			if m == nil {
				in = false
				continue
			}
			families = append(families, m[1])
		}
	}
	if len(families) == 0 {
		t.Fatalf("%s has no counter schema table", doc)
	}
	return families
}

// familyRE turns a documented family into a key pattern: each <label>
// placeholder stands for one non-empty key segment run.
func familyRE(family string) *regexp.Regexp {
	placeholder := regexp.MustCompile(`<[a-z]+>`)
	parts := placeholder.Split(family, -1)
	for i, p := range parts {
		parts[i] = regexp.QuoteMeta(p)
	}
	return regexp.MustCompile("^" + strings.Join(parts, ".+") + "$")
}

// The README and DESIGN §6 schema tables list the same families, every
// counter a traced run of the robot, chaos, IPC chaos and detection
// experiments produces belongs to one of them, and each family occurs —
// the same parity deltalint -list keeps with the README pass table.
func TestCounterSchemaMatchesDocs(t *testing.T) {
	families := counterFamilies(t, "README.md")
	if design := counterFamilies(t, "DESIGN.md"); !slices.Equal(families, design) {
		t.Fatalf("README counter families %v, DESIGN.md %v", families, design)
	}
	res := make([]*regexp.Regexp, len(families))
	for i, f := range families {
		res[i] = familyRE(f)
	}

	seen := make([]bool, len(families))
	for _, id := range []string{"table10", "chaos", "ipc-chaos", "table45"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %q is not registered", id)
		}
		rc := &RunCtx{Parallel: 1, Session: trace.NewSession(), Label: id}
		if _, err := e.Run(rc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for key := range rc.Counters() {
			matched := false
			for i, re := range res {
				if re.MatchString(key) {
					seen[i], matched = true, true
				}
			}
			if !matched {
				t.Errorf("%s: counter %q matches no documented family", id, key)
			}
		}
	}
	for i, f := range families {
		if !seen[i] {
			t.Errorf("documented family %s never occurred", f)
		}
	}
}
