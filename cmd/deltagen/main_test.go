package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"deltartos/internal/delta"
)

// The generated files are written, and reported, in one fixed order:
// Top.v, the hardware components as the configuration lists them, the
// Atalanta header and the configuration.
func TestWriteFilesOrderIsFixed(t *testing.T) {
	cfg, err := delta.Preset("RTOS6")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Components = []delta.Component{delta.CompSoCLC, delta.CompDDU}
	cfg.Tasks, cfg.Resources = 5, 5
	gen, err := delta.Generate(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var want string
	for i := 0; i < 64; i++ {
		var out bytes.Buffer
		if err := writeFiles(&out, &cfg, gen, dir); err != nil {
			t.Fatal(err)
		}
		got := strings.ReplaceAll(out.String(), dir+string(filepath.Separator), "")
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d wrote\n%s\nrun 0 wrote\n%s", i, got, want)
		}
	}
	if order := "wrote Top.v\nwrote soclc.v\nwrote ddu.v\nwrote atalanta_cfg.h\nwrote config.json\n"; want != order {
		t.Errorf("order:\n%s\nwant:\n%s", want, order)
	}
}
