// Package benchfmt is the provenance for bench/ results: the code and
// host a result was measured on — without it a recorded speedup is
// uninterpretable a few commits later ("fast compared to what, where?").
// bench/ stamps every results file through Collect, so each one answers
// the same questions: which commit, which Go, which CPU, how many cores.
package benchfmt

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

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
