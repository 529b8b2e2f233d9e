// Package msgtest provides shared test fixtures: a registry loaded with
// the repository's .msg IDL tree, located by walking up from the test's
// working directory to the module root, and the skip every test uses
// when this host cannot verify what it checks.
package msgtest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rossf/internal/msg"
)

// ModuleRoot returns the repository root (the directory containing
// go.mod), walking up from the current working directory.
func ModuleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// LoadRegistry returns a registry populated from msgs/idl and validated.
func LoadRegistry(t testing.TB) *msg.Registry {
	t.Helper()
	root := ModuleRoot(t)
	reg := msg.NewRegistry()
	if err := reg.LoadFS(os.DirFS(filepath.Join(root, "msgs")), "idl"); err != nil {
		t.Fatalf("load idl: %v", err)
	}
	if err := reg.Validate(); err != nil {
		t.Fatalf("validate idl: %v", err)
	}
	return reg
}

// ModuleRootB is ModuleRoot for benchmarks.
func ModuleRootB(b *testing.B) string { return ModuleRoot(b) }

// NotVerified skips t, first printing "NOT VERIFIED: <test>: <why>" to
// stderr, so a green run still names what this host could not check.
// It is for skips the environment forces (no shared-memory directory,
// too little free space, no child processes); a skip the test chooses —
// -short, a helper process's entry point — is listed in TESTING.md.
func NotVerified(t testing.TB, format string, args ...any) {
	t.Helper()
	why := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "NOT VERIFIED: %s: %s\n", t.Name(), why)
	t.Skip("not verified: " + why)
}
