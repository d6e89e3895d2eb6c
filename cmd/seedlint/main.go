// Seedlint is the repository's own static analyzer: a multichecker of
// eight repo-specific analyzers enforcing engine invariants that no
// off-the-shelf tool knows about. Five are per-package checks — mmap
// lifetimes (mmapclose), goroutine cancellation discipline
// (ctxselect), asm/noasm kernel parity (kernelparity), copy-on-write
// option setters (optclone), and meaningful Close errors (errclose) —
// joined by span lifetimes (spanend) and directive hygiene
// (directive). One is a cross-package dataflow check that parses
// several packages into a shared facts layer: map-iteration
// determinism at order-sensitive sinks (mapdet). See DESIGN.md
// "Static analysis" for the invariants and internal/analysis for the
// implementations.
//
// Direct mode (what CI runs) analyzes packages like the go tool does:
//
//	seedlint ./...
//	seedlint -only mmapclose,errclose ./internal/service/
//	seedlint -json ./...
//
// It exits 0 when the tree is clean and 1 with one "file:line:col:
// analyzer: message" line per finding otherwise (-json switches to one
// NDJSON record per finding). Findings are waived in place with a
// //seedlint:allow <analyzer> -- reason comment. The go list load is
// performed once and shared by all eight analyzers (-timings prints the
// cold and memoized load wall times; -cpuprofile writes a pprof
// profile for measuring it).
//
// Seedlint also speaks enough of the go vet tool protocol to run as
//
//	go vet -vettool=$(which seedlint) ./...
//
// (the -V=full / -flags / config-file handshake), so editors wired to
// vet pick the analyzers up with no extra configuration. Under vet,
// per-package analyzers run on each package as vet feeds it; the
// cross-package analyzers run once, anchored to the module root
// package's invocation, over a whole-module load — so `go vet ./...`
// reports each cross-layer finding exactly once.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

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
		only       = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list       = flag.Bool("list", false, "list analyzers and exit")
		jsonOut    = flag.Bool("json", false, "emit findings as NDJSON records instead of text")
		timings    = flag.Bool("timings", false, "print package-load wall times (cold and memoized) to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seedlint [-only a,b] [-json] [packages]\n\nAnalyzers:\n")
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

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seedlint:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "seedlint:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
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
	// One go list + parse, memoized by SharedLoader and shared by all
	// eight analyzers in this process.
	start := time.Now()
	pkgs, err := analysis.SharedLoader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		os.Exit(2)
	}
	cold := time.Since(start)
	if *timings {
		start = time.Now()
		if _, err := analysis.SharedLoader.Load(".", patterns...); err != nil {
			fmt.Fprintln(os.Stderr, "seedlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "seedlint: loaded %d packages in %v (cold); memoized reload %v\n",
			len(pkgs), cold.Round(time.Millisecond), time.Since(start).Round(time.Microsecond))
	}
	findings, err := analysis.RunAll(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		os.Exit(2)
	}
	if err := printFindings(os.Stdout, findings, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// jsonFinding is the NDJSON record -json emits, one per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printFindings(w io.Writer, findings []analysis.Finding, asJSON bool) error {
	if !asJSON {
		for _, f := range findings {
			fmt.Fprintln(w, shortenPath(f.String()))
		}
		return nil
	}
	enc := json.NewEncoder(w)
	for _, f := range findings {
		rec := jsonFinding{
			File:     shortenPath(f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
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
	ID         string
	Dir        string
	ImportPath string
	GoFiles    []string
	NonGoFiles []string
	VetxOutput string
}

// runVetTool analyzes one package described by a vet config file and
// returns the process exit code: 0 clean, 2 with findings on stderr
// (matching x/tools' unitchecker convention).
//
// Per-package analyzers run on the unit vet handed us. The
// cross-package analyzers need several layers in view at once, so they
// are anchored: only the module root package's invocation runs them,
// over a whole-module load (memoized by SharedLoader). Every other
// unit skips them, so `go vet ./...` reports each cross-layer finding
// exactly once.
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
	var perPkg, cross []*analysis.Analyzer
	for _, a := range analysis.Analyzers {
		if analysis.CrossPackage(a) {
			cross = append(cross, a)
		}
		if a.Run != nil {
			perPkg = append(perPkg, a)
		}
	}
	findings, err := analysis.RunAll(perPkg, []*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedlint:", err)
		return 1
	}
	if path == "seedblast" {
		// Anchor unit: run the cross-package analyzers over the whole
		// module, loaded from the root package's directory.
		all, err := analysis.SharedLoader.Load(cfg.Dir, "./...")
		if err != nil {
			fmt.Fprintln(os.Stderr, "seedlint:", err)
			return 1
		}
		for _, a := range cross {
			fs, err := analysis.RunCross(a, all)
			if err != nil {
				fmt.Fprintln(os.Stderr, "seedlint:", err)
				return 1
			}
			findings = append(findings, fs...)
		}
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
