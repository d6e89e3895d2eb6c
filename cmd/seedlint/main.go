// Seedlint is the repository's own static analyzer: a multichecker of
// five repo-specific analyzers enforcing engine invariants that no
// off-the-shelf tool knows about — mmap lifetimes (mmapclose),
// goroutine cancellation discipline (ctxselect), asm/noasm kernel
// parity (kernelparity), meaningful Close errors (errclose) and
// directive hygiene (directive). Each one
// checks one package at a time. See DESIGN.md "Static analysis" for the
// invariants and internal/analysis for the implementations.
//
// Direct mode (what CI runs) analyzes packages like the go tool does:
//
//	seedlint ./...
//	seedlint -only mmapclose,errclose ./internal/service/
//
// It exits 0 when the tree is clean and 1 with one "file:line:col:
// analyzer: message" line per finding otherwise. Findings are waived
// in place with a //seedlint:allow <analyzer> -- reason comment.
//
// Seedlint also speaks enough of the go vet tool protocol to run as
//
//	go vet -vettool=$(which seedlint) ./...
//
// (the -V=full / -flags / config-file handshake), so editors wired to
// vet pick the analyzers up with no extra configuration. Under vet,
// every analyzer runs on each package as vet feeds it, and reports what
// direct mode reports for that package.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"seedblast/internal/analysis"
)

func main() {
	// The vet tool protocol probes before any user flags: respond to
	// -V=full (version handshake) and -flags (flag discovery), and to
	// an invocation whose single argument is a vet config file.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full":
			// The go tool derives the vet cache key from the trailing
			// buildID field, so hash the binary itself: a rebuilt
			// seedlint invalidates stale vet results.
			fmt.Printf("%s version devel comments-go-here buildID=%s\n",
				filepath.Base(os.Args[0]), selfContentID())
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runVetTool(os.Args[1]))
		}
	}

	var (
		only = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seedlint [-only a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAll(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(shortenPath(f.String()))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// selfContentID hashes the running executable for the -V=full
// handshake's buildID field.
func selfContentID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analysis.Analyzers, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := analysis.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// shortenPath trims the working directory off absolute positions so
// findings read as repo-relative paths.
func shortenPath(s string) string {
	wd, err := os.Getwd()
	if err != nil {
		return s
	}
	return strings.ReplaceAll(s, wd+string(filepath.Separator), "")
}

// vetConfig is the subset of the go vet unitchecker config seedlint
// reads. The go tool writes one such JSON file per package and invokes
// the tool with its path as the only argument.
type vetConfig struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	NonGoFiles []string
	VetxOutput string
}

// runVetTool analyzes one package described by a vet config file and
// returns the process exit code: 0 clean, 2 with findings on stderr
// (matching x/tools' unitchecker convention).
func runVetTool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "seedlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go tool expects the facts output file to exist even though
	// seedlint exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "seedlint:", err)
			return 1
		}
	}
	// go vet feeds every package in the build graph — the standard
	// library and per-package test variants included. Seedlint's scope
	// is the module's own non-test sources, same as direct mode.
	path, _, _ := strings.Cut(cfg.ImportPath, " ")
	if path != "seedblast" && !strings.HasPrefix(path, "seedblast/") {
		return 0
	}
	var goFiles []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	if len(goFiles) == 0 {
		return 0
	}
	var otherFiles []string
	for _, f := range cfg.NonGoFiles {
		if strings.HasSuffix(f, ".s") {
			otherFiles = append(otherFiles, f)
		}
	}
	pkg, err := analysis.ParsePackage(path, cfg.Dir, goFiles, otherFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		return 1
	}
	findings, err := analysis.RunAll(analysis.Analyzers, []*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
