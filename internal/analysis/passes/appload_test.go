package passes

import (
	"fmt"
	"sync"
	"testing"

	"deltartos/internal/analysis/framework"
)

// loadApp loads deltartos/internal/app once for every cross-check test
// that runs a pass over it.  Sharing one load is sound because RunAnalyzer
// memoizes the shared analyses per package and no pass edits what they
// share (TestSharedResultsIndependentOfPassOrder, which makes its own two
// loads).
var loadApp = sync.OnceValues(func() (*framework.Package, error) {
	pkgs, err := framework.LoadModule(".", "deltartos/internal/app")
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("loaded %d packages, want 1", len(pkgs))
	}
	if terrs := pkgs[0].TypeErrors; len(terrs) > 0 {
		return nil, fmt.Errorf("type error: %v", terrs[0])
	}
	return pkgs[0], nil
})

// appPackage returns the shared load of internal/app.
func appPackage(t *testing.T) *framework.Package {
	t.Helper()
	pkg, err := loadApp()
	if err != nil {
		t.Fatalf("load internal/app: %v", err)
	}
	return pkg
}
