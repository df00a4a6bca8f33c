package dau

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"deltartos/internal/ddu"
	"deltartos/internal/verilog"
)

// The generated Verilog is an output of the reproduction (ddugen -verilog
// and ddugen -dau -verilog print it as is), so a generator rewrite must
// reproduce it byte for byte.  The digests pin the SHA-256 of Emit at four
// sizes, procs x resources, one of them not square.
func TestGeneratedVerilogDigests(t *testing.T) {
	for _, c := range []struct {
		procs, res int
		ddu, dau   string
	}{
		{5, 5, "1da0763163cfa42fe42ae5ff173b8b61f95eab55ae32d297afe005a87d78108e", "c4ff61083c8784a0f36aefc4afaf6c59a60f7db6c471d096823ccf2eff246e52"},
		{10, 10, "ae7f3fb499c5a900d89a2ba18b8af9f80f116281adcee2882b12d7c85d1eaccd", "9147d9ca943e4e54001d12289795430929befd90978bdc1083af9304423eddde"},
		{50, 50, "ef5aebb3ea7985c927474e3eb546093a1b30def4abb95f25ecd6c0e9afdfd5a5", "3beb3b3e7a120f713165a99c8260b2360a8cff6195b1f0883da4b5315591e255"},
		{7, 13, "3966d8036f00d0443348ea1cbf7051a197592f81760670bbc9430aefee2ab804", "f30d2de1855b3d536a979c7415ea7eb4f5206615095a21759087f0e92006f12d"},
	} {
		name := fmt.Sprintf("%dx%d", c.procs, c.res)
		check := func(unit, want string, f *verilog.File, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", unit, name, err)
			}
			sum := sha256.Sum256([]byte(f.Emit()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s %s: Verilog digest %s, pinned %s", unit, name, got, want)
			}
		}
		f, err := ddu.Generate(ddu.Config{Procs: c.procs, Resources: c.res})
		check("DDU", c.ddu, f, err)
		f, err = Generate(Config{Procs: c.procs, Resources: c.res})
		check("DAU", c.dau, f, err)
	}
}
