// Package benchfmt is the shared layout of the repo's checked-in
// benchmark records (BENCH_*.json): a schema version string, so tools
// reading a record can tell which fields to expect, and the host
// provenance every record carries — without it a recorded speedup is
// uninterpretable a few commits later ("fast compared to what, where?").
//
// cmd/loadgen (daemon-level load generation) stamps its records
// through Collect, so every BENCH file answers the same questions:
// which commit, which Go, which CPU, how many cores.
package benchfmt

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// SchemaLoadgen is cmd/loadgen's record layout: daemon-level
// throughput, cold start and per-stage latency quantiles. A record's
// "schema" field names its layout; bump the suffix when it changes
// incompatibly.
const SchemaLoadgen = "seedblast-loadgen/1"

// Provenance identifies the code and host a record was measured on.
type Provenance struct {
	Date      string `json:"date"` // RFC 3339, UTC
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	// CPUModel is the host CPU's model string (best effort; empty when
	// the platform does not expose one).
	CPUModel string `json:"cpuModel,omitempty"`
	// Commit is the git HEAD the binary was run from (best effort;
	// empty outside a git checkout). "-dirty" is appended when the
	// working tree had uncommitted changes.
	Commit string `json:"commit,omitempty"`
}

// Collect gathers provenance for a record written now. The commit and
// CPU model are best-effort: a record measured outside a git checkout
// or on a platform without /proc/cpuinfo simply omits them.
func Collect() Provenance {
	return Provenance{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Commit:    gitCommit(),
	}
}

// Validate checks the fields every record must carry.
func (p *Provenance) Validate() error {
	switch {
	case p.Date == "":
		return fmt.Errorf("benchfmt: provenance missing date")
	case p.GoVersion == "":
		return fmt.Errorf("benchfmt: provenance missing goVersion")
	case p.GOOS == "" || p.GOARCH == "":
		return fmt.Errorf("benchfmt: provenance missing goos/goarch")
	case p.NumCPU <= 0:
		return fmt.Errorf("benchfmt: provenance numCPU = %d", p.NumCPU)
	}
	if _, err := time.Parse(time.RFC3339, p.Date); err != nil {
		return fmt.Errorf("benchfmt: provenance date: %w", err)
	}
	return nil
}

// gitCommit returns HEAD's hash, "-dirty"-suffixed when the tree has
// uncommitted changes; "" when git or a repository is unavailable.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(head))
	if commit == "" {
		return ""
	}
	// --porcelain prints nothing on a clean tree.
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "-dirty"
	}
	return commit
}

// cpuModel reads the CPU model string from /proc/cpuinfo (Linux); ""
// elsewhere.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		// x86 says "model name", arm64 says "Processor" or only
		// implementer codes; take the first name-ish field.
		for _, key := range []string{"model name", "Processor", "cpu model"} {
			if rest, ok := strings.CutPrefix(line, key); ok {
				if i := strings.IndexByte(rest, ':'); i >= 0 {
					return strings.TrimSpace(rest[i+1:])
				}
			}
		}
	}
	return ""
}
