package seedblast_test

import (
	"encoding/json"
	"errors"
	"os"
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
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 8 {
		t.Errorf("seedlint -list shows %d analyzers, want 8:\n%s", n, out)
	}
	for _, name := range []string{
		"mmapclose", "ctxselect", "kernelparity", "optclone", "errclose",
		"spanend", "mapdet", "directive",
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

// TestSeedlintJSONGolden pins the -json NDJSON record shape against a
// dedicated fixture package with one per-package finding (mmapclose)
// and one cross-package finding (mapdet).
func TestSeedlintJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedlint")

	out, err := exec.Command(bin, "-json", "./cmd/seedlint/testdata/jsongold").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("seedlint -json on a dirty fixture: want exit 1, got %v\n%s", err, out)
	}
	want, err := os.ReadFile("cmd/seedlint/testdata/jsongold.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(want) {
		t.Errorf("-json output drifted from golden file:\n got: %s\nwant: %s", out, want)
	}
	// Every line must round-trip as JSON with the documented fields.
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var rec struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("bad NDJSON line %q: %v", line, err)
			continue
		}
		if rec.File == "" || rec.Line == 0 || rec.Analyzer == "" || rec.Message == "" {
			t.Errorf("NDJSON record missing fields: %q", line)
		}
	}
}
