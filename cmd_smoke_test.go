package seedblast_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

// buildTool compiles one command into a temp dir and returns its path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, "./"+pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCmdSeedcmpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedcmp")
	out := run(t, bin, "-synthetic", "8", "-genome-len", "30000", "-plant", "3", "-top", "5")
	for _, want := range []string{"pairs scored", "E-value", "timing:"} {
		if !strings.Contains(out, want) {
			t.Errorf("seedcmp output missing %q:\n%s", want, out)
		}
	}
	// RASC engine with the gap operator.
	out = run(t, bin, "-synthetic", "6", "-genome-len", "20000", "-plant", "2",
		"-engine", "rasc", "-pes", "64", "-offload-gapped")
	if !strings.Contains(out, "gap operator") || !strings.Contains(out, "device:") {
		t.Errorf("rasc output missing device sections:\n%s", out)
	}

	// The knobs seedcmp shares with the service go through the service's
	// translation, so the same bad value fails both with the same words.
	bad, err := exec.Command(bin, "-synthetic", "4", "-engine", "bogus").CombinedOutput()
	if err == nil {
		t.Fatalf("seedcmp -engine bogus succeeded:\n%s", bad)
	}
	cliMsg := strings.TrimPrefix(strings.TrimSpace(string(bad)), "seedcmp: ")
	svc := service.New(service.Config{})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	seq := []service.SequenceJSON{{ID: "x", Seq: "MKV"}}
	_, err = service.NewClient(ts.URL, service.ClientConfig{}).Submit(context.Background(),
		&service.JobRequestJSON{Query: seq, Subject: seq, Options: service.OptionsJSON{Engine: "bogus"}})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf(`{"engine":"bogus"}: %v, want a 400`, err)
	}
	if apiErr.Message != "options: "+cliMsg || !strings.Contains(cliMsg, `unknown engine "bogus"`) {
		t.Errorf("flag and JSON field fail differently:\n cli: %s\nhttp: %s", cliMsg, apiErr.Message)
	}
}

// TestExampleQuickstartSmoke runs the README's v2 quick-start example
// end to end: the facade's NewSearcher/Target/Search surface, driven
// exactly as a new user would.
func TestExampleQuickstartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "examples/quickstart")
	out := run(t, bin)
	for _, want := range []string{"planted 5 genes", "frame", "timing: index"} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdSeedcmpFormats pins the machine-readable match output: -format
// json must emit one decodable AlignmentJSON per line (the service's
// wire encoding), -format tsv a tab-separated table.
func TestCmdSeedcmpFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedcmp")
	out := run(t, bin, "-synthetic", "8", "-genome-len", "30000", "-plant", "3", "-format", "json")
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // summary lines go to stderr, but CombinedOutput interleaves
		}
		lines++
		var aj service.AlignmentJSON
		if err := json.Unmarshal([]byte(line), &aj); err != nil {
			t.Fatalf("line %q not AlignmentJSON: %v", line, err)
		}
		if aj.Query == "" || aj.Frame == "" || aj.NucStart == nil {
			t.Errorf("json match missing fields: %q", line)
		}
	}
	if lines == 0 {
		t.Fatalf("no NDJSON matches in output:\n%s", out)
	}

	out = run(t, bin, "-synthetic", "8", "-genome-len", "30000", "-plant", "3", "-format", "tsv")
	if !strings.Contains(out, "query\tframe\tscore") {
		t.Errorf("tsv output missing header:\n%s", out)
	}
}

func TestCmdTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/tables")
	out := run(t, bin, "-scale", "tiny", "-table", "3", "-pes", "32,64")
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "2 FPGAs") {
		t.Errorf("tables output wrong:\n%s", out)
	}
}

func TestCmdDatagenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/datagen")
	dir := t.TempDir()
	bank := filepath.Join(dir, "bank.fa")
	out := run(t, bin, "-kind", "proteins", "-n", "5", "-out", bank)
	if !strings.Contains(out, "wrote 5 proteins") {
		t.Errorf("datagen proteins output wrong:\n%s", out)
	}
	genome := filepath.Join(dir, "genome.fa")
	out = run(t, bin, "-kind", "genome", "-len", "20000", "-source", bank,
		"-plant", "2", "-out", genome)
	if !strings.Contains(out, "planted genes") {
		t.Errorf("datagen genome output wrong:\n%s", out)
	}
	// The generated files must feed back into seedcmp.
	seedcmp := buildTool(t, "cmd/seedcmp")
	out = run(t, seedcmp, "-proteins", bank, "-genome", genome, "-top", "3")
	if !strings.Contains(out, "matches:") {
		t.Errorf("seedcmp on generated files:\n%s", out)
	}
}

func TestCmdPsctraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/psctrace")
	out := run(t, bin, "-pes", "4", "-slot", "2", "-il0", "2", "-il1", "2", "-dense")
	for _, want := range []string{"load phase", "finishes", "output pe=", "total cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("psctrace output missing %q:\n%s", want, out)
		}
	}
}

// freeAddr reserves an ephemeral localhost address for a daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon launches a built daemon binary and tears it down with
// the test.
func startDaemon(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// smokeJob is the shared submit→poll→fetch flow: a query with a
// strong self-match in the subject bank, driven through the reusable
// service client against whatever daemon base is (a worker or the
// cluster coordinator — same API).
func smokeJob(t *testing.T, base string) {
	t.Helper()
	cl := service.NewClient(base, service.ClientConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}

	ev := 1.0
	id, err := cl.Submit(ctx, &service.JobRequestJSON{
		Query: []service.SequenceJSON{{ID: "q0", Seq: "MKVLITGASGFIGSHLVDRLMSKGYEVIGLDNFNDYYDVRLKEARLELL"}},
		Subject: []service.SequenceJSON{
			{ID: "s0", Seq: "MKVLITGASGFIGSHLVDRLMSKGYEVIGLDNFNDYYDVRLKEARLELL"},
			{ID: "s1", Seq: "AWQETNPNNSWGWSQERLAELAAEYDVDAIRPGRGLHLMSSRSHATTAW"},
			{ID: "s2", Seq: "GGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSG"},
		},
		Options: service.OptionsJSON{MaxEValue: &ev},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	aligns, err := cl.Alignments(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(aligns) == 0 {
		t.Fatal("no alignments for an exact self-match")
	}
	if aligns[0].Query != "q0" || aligns[0].Subject != "s0" {
		t.Errorf("top alignment %+v, want q0 vs s0", aligns[0])
	}

	// The streaming NDJSON fetch must carry the same records in the
	// same order — against workers and the coordinator alike.
	var streamed []service.AlignmentJSON
	for aj, err := range cl.StreamAlignments(ctx, id) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, aj)
	}
	if len(streamed) != len(aligns) {
		t.Fatalf("streamed %d alignments, array fetch %d", len(streamed), len(aligns))
	}
	// DeepEqual, not ==: AlignmentJSON's NucStart/NucEnd are pointers,
	// which == would compare by identity and always differ on genome
	// jobs even when the values agree.
	if !reflect.DeepEqual(streamed, aligns) {
		t.Errorf("streamed alignments differ from array fetch:\n%+v\nvs\n%+v", streamed, aligns)
	}
}

// fetchMetrics reads a daemon's Prometheus endpoint.
func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

// TestCmdSeedservdSmoke drives the comparison service end to end over
// real HTTP: start the daemon, submit a bank-vs-bank job through the
// reusable service client, poll it to completion, fetch the
// alignments, and read /metrics.
func TestCmdSeedservdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedservd")
	addr := freeAddr(t)
	startDaemon(t, bin, "-addr", addr, "-max-concurrent", "2")
	base := "http://" + addr

	smokeJob(t, base)

	metrics := fetchMetrics(t, base+"/metrics")
	for _, want := range []string{"seedservd_requests_completed_total 1", "seedservd_index_cache_misses_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCmdSeeddbSmoke drives the persistence workflow end to end with
// the real binaries: seeddb build → inspect → verify, then seedservd
// -db serving the prebuilt index — the smoke job's subject bank is
// byte-identical to the built bank, so the request must be a cache hit
// with zero misses (step 1 never runs in the daemon).
func TestCmdSeeddbSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	dbBin := buildTool(t, "cmd/seeddb")
	servBin := buildTool(t, "cmd/seedservd")

	// The smoke job's subject bank, as FASTA.
	dir := t.TempDir()
	fasta := filepath.Join(dir, "subject.fasta")
	if err := os.WriteFile(fasta, []byte(
		">s0\nMKVLITGASGFIGSHLVDRLMSKGYEVIGLDNFNDYYDVRLKEARLELL\n"+
			">s1\nAWQETNPNNSWGWSQERLAELAAEYDVDAIRPGRGLHLMSSRSHATTAW\n"+
			">s2\nGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSGGSG\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "subject.seeddb")
	run(t, dbBin, "build", "-proteins", fasta, "-out", db)

	out := run(t, dbBin, "inspect", db)
	for _, want := range []string{"fingerprint", "subset4", "3 sequences"} {
		if !strings.Contains(out, want) {
			t.Errorf("seeddb inspect output missing %q:\n%s", want, out)
		}
	}
	if out := run(t, dbBin, "verify", db); !strings.Contains(out, "ok") {
		t.Errorf("seeddb verify output:\n%s", out)
	}

	addr := freeAddr(t)
	startDaemon(t, servBin, "-addr", addr, "-db", db)
	base := "http://" + addr
	smokeJob(t, base)

	metrics := fetchMetrics(t, base+"/metrics")
	for _, want := range []string{
		"seedservd_index_cache_hits_total 1",
		"seedservd_index_cache_misses_total 0",
		"seedservd_requests_completed_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q (prebuilt index should pre-warm the cache):\n%s", want, metrics)
		}
	}
}

// TestCmdSeedservdClusterSmoke boots two real seedservd workers plus a
// seedservd -workers coordinator over them and runs the same
// scatter-gather job flow through the same client — the coordinator is
// indistinguishable from a worker at the API level — then checks the
// coordinator's /metrics recorded per-worker volume traffic.
func TestCmdSeedservdClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedservd")

	w1, w2 := freeAddr(t), freeAddr(t)
	startDaemon(t, bin, "-addr", w1, "-max-concurrent", "2")
	startDaemon(t, bin, "-addr", w2, "-max-concurrent", "2")

	caddr := freeAddr(t)
	startDaemon(t, bin, "-addr", caddr,
		"-workers", fmt.Sprintf("http://%s,http://%s", w1, w2),
		"-strategy", "size", "-volumes", "3", "-wait-workers", "30s")
	base := "http://" + caddr

	smokeJob(t, base)

	metrics := fetchMetrics(t, base+"/metrics")
	for _, want := range []string{
		"seedclusterd_requests_completed_total 1",
		"seedclusterd_last_volumes 3",
		"seedclusterd_worker_volumes_total{worker=\"http://" + w1 + "\"}",
		"seedclusterd_worker_volumes_total{worker=\"http://" + w2 + "\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	fams, err := telemetry.ParseText(strings.NewReader(metrics))
	if err != nil {
		t.Fatalf("/metrics violates the exposition grammar: %v\n%s", err, metrics)
	}
	// Three volumes over two healthy workers: both must have served at
	// least one (round-robin placement), with no retries burned.
	for _, w := range []string{w1, w2} {
		if v, ok := fams.Value("seedclusterd_worker_volumes_total", telemetry.L("worker", "http://"+w)); !ok || v < 1 {
			t.Errorf("healthy worker %s served %g volumes, want >= 1:\n%s", w, v, metrics)
		}
	}
	if v, ok := fams.Value("seedclusterd_volume_retries_total"); !ok || v != 0 {
		t.Errorf("seedclusterd_volume_retries_total = %g (present=%v), want 0", v, ok)
	}

	// The hand-rendered page is gone; /metrics is the one exposition.
	resp, err := http.Get(base + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /cluster/metrics: %d, want 404", resp.StatusCode)
	}
}

// A coordinator reads no index and admits no local comparisons, so
// seedservd -workers refuses the flags that configure them.
func TestCmdSeedservdWorkersRejectsLocalFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests in -short mode")
	}
	bin := buildTool(t, "cmd/seedservd")
	for _, flag := range [][]string{{"-db", "x"}, {"-max-concurrent", "2"}, {"-cache-entries", "8"}} {
		args := append([]string{"-addr", freeAddr(t), "-workers", "http://127.0.0.1:1"}, flag...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("seedservd %v exited 0:\n%s", args, out)
		}
		if !strings.Contains(string(out), flag[0]) {
			t.Errorf("seedservd %v: message does not name %s:\n%s", args, flag[0], out)
		}
	}
}
