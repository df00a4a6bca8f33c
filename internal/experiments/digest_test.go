package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// tablesDigest is the SHA-256 of the rendered tables of every experiment
// `deltasim -all` runs except the two fuzz sweeps, concatenated in All()
// order, at Parallel 1.  A change that keeps every paper table byte for
// byte keeps this digest; one that moves a table on purpose re-pins it and
// says which table moved and why.
const tablesDigest = "dff96faff03ea374132848b8fdc882defc18becd615af02fc8021eba322e0699"

// TestTablesDigest checks the paper tables byte for byte against the
// pinned digest, so host-side work on the simulator, the kernels or the
// generators cannot move a published number unnoticed.
func TestTablesDigest(t *testing.T) {
	var exps []Experiment
	for _, e := range All() {
		if e.ID != "ext-fuzz" && e.ID != "ext-ipc-fuzz" {
			exps = append(exps, e)
		}
	}
	h := sha256.New()
	for _, out := range RunMatrix(exps, 1, nil, false) {
		if out.Err != nil {
			t.Fatalf("%s: %v", out.ID, out.Err)
		}
		h.Write([]byte(out.Rendered))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != tablesDigest {
		t.Fatalf("rendered tables digest %s, pinned %s", got, tablesDigest)
	}
}
