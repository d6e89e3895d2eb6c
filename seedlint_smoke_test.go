package seedblast_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestSeedlintSmoke builds cmd/seedlint and runs it over the whole
// repository: the tree must stay warning-free (exit 0, no output), so
// the lint job in CI never breaks on a clean checkout.
func TestSeedlintSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedlint")

	out := run(t, bin, "./...")
	if strings.TrimSpace(out) != "" {
		t.Errorf("seedlint ./... reported findings on a clean tree:\n%s", out)
	}

	// -list enumerates the analyzers, one per line; pin the full set so
	// adding or dropping one from the registry is caught.
	out = run(t, bin, "-list")
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 5 {
		t.Errorf("seedlint -list shows %d analyzers, want 5:\n%s", n, out)
	}
	for _, name := range []string{
		"mmapclose", "ctxselect", "kernelparity", "errclose", "directive",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("seedlint -list missing analyzer %q:\n%s", name, out)
		}
	}

	// The vet-tool handshake: go vet probes -V=full before anything else.
	vOut, err := exec.Command(bin, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("seedlint -V=full: %v\n%s", err, vOut)
	}
	if !strings.HasPrefix(string(vOut), "seedlint version ") || !strings.Contains(string(vOut), "buildID=") {
		t.Errorf("seedlint -V=full output %q is not a vettool version line", vOut)
	}
}

// TestSeedlintVetMatchesDirect runs both drivers on one fixture
// package: direct mode and go vet -vettool must report the same single
// mmapclose finding, and nothing for the fixture's map range into a
// writer.
func TestSeedlintVetMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedlint")
	const (
		fixture = "./cmd/seedlint/testdata/dirty"
		want    = "cmd/seedlint/testdata/dirty/dirty.go:17:9: mmapclose: result of index.Open is discarded; the mapping can never be closed"
	)

	out, err := exec.Command(bin, fixture).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("seedlint on a dirty fixture: want exit 1, got %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != want {
		t.Errorf("seedlint %s:\n got: %s\nwant: %s", fixture, got, want)
	}

	out, err = exec.Command("go", "vet", "-vettool="+bin, fixture).CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on a dirty fixture succeeded:\n%s", out)
	}
	var findings []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasPrefix(line, "#") {
			findings = append(findings, line)
		}
	}
	if len(findings) != 1 || findings[0] != want {
		t.Errorf("go vet -vettool %s reported\n%s\nwant exactly\n%s", fixture, strings.Join(findings, "\n"), want)
	}
}
