package main

import (
	"os"
	"path/filepath"
	"testing"
)

// -cpuprofile and -memprofile each write a non-empty profile when the
// command returns.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := deltasim([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: profile missing or empty (%v)", filepath.Base(path), err)
		}
	}
}
