package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/pipeline"
	"seedblast/internal/stats"
	"seedblast/internal/telemetry"
	"seedblast/internal/translate"
)

// MaxRequestBytes bounds a submitted job body (banks are sent inline).
const MaxRequestBytes = 64 << 20

// streamFlushEvery is how many NDJSON lines the streaming alignments
// fetch writes between flushes: small enough that a slow consumer sees
// steady progress, large enough to amortize the chunked-encoding
// overhead.
const streamFlushEvery = 64

// NewHandler returns the service's HTTP+JSON API:
//
//	POST   /v1/jobs                submit a comparison; returns {"id": ...}
//	GET    /v1/jobs                list job summaries
//	GET    /v1/jobs/{id}           one job's status (?wait=30s: held
//	                               until the job ends or the wait,
//	                               capped at MaxWait, runs out)
//	DELETE /v1/jobs/{id}           cancel a job (a coordinator cancels
//	                               its volumes on the workers)
//	GET    /v1/jobs/{id}/alignments fetch a finished job's alignments
//	                               (?stream=1: chunked NDJSON, one
//	                               alignment per line, instead of one
//	                               JSON array)
//	GET    /v1/jobs/{id}/trace     the job's span trace (per-shard
//	                               stage timings, or a coordinator's
//	                               scatter-gather with the workers'
//	                               spans; live while running)
//	GET    /metrics                Prometheus text exposition (the
//	                               service registry: counters, gauges,
//	                               stage-latency histograms)
//	GET    /healthz                liveness probe
//
// A submit carrying a Seedblast-Trace-Id header runs under that trace
// ID — the cluster coordinator correlates worker spans this way.
func NewHandler(s *Service) http.Handler {
	h := &handler{svc: s}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/alignments", h.alignments)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.trace)
	mux.Handle("GET /metrics", s.Registry().Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

type handler struct{ svc *Service }

// SequenceJSON is one sequence record in a request body.
type SequenceJSON struct {
	ID  string `json:"id"`
	Seq string `json:"seq"`
}

// OptionsJSON is the wire form of the per-request option subset the
// API exposes. Absent fields take the pipeline defaults.
type OptionsJSON struct {
	Engine        string   `json:"engine,omitempty"` // cpu (default), rasc, multi
	N             *int     `json:"n,omitempty"`
	Threshold     *int     `json:"threshold,omitempty"`
	MaxEValue     *float64 `json:"maxEValue,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	ShardSize     int      `json:"shardSize,omitempty"`
	InFlight      int      `json:"inFlight,omitempty"`
	StreamWorkers int      `json:"streamWorkers,omitempty"`
	GeneticCode   string   `json:"geneticCode,omitempty"`
	// MaxCandidates enables the two-stage prefilter: only the top k
	// subjects per query (by hashed-seed diagonal score) are extended.
	// Absent or 0 disables it (bit-identical to today's behaviour);
	// E-values are unaffected either way. On a cluster worker the cut
	// applies per volume — see cluster.Coordinator.Compare.
	MaxCandidates *int `json:"maxCandidates,omitempty"`
	// SearchSpace is the volume context: when the submitted subject is
	// one volume of a larger partitioned bank, the coordinator sets the
	// full bank's geometry here so this worker's E-values (and the
	// maxEValue cut) are computed against the whole database — making
	// the gathered, merged result bit-identical to an unpartitioned
	// run. Absent means the subject bank is the whole database.
	SearchSpace *SearchSpaceJSON `json:"searchSpace,omitempty"`
}

// SearchSpaceJSON is the wire form of stats.SearchSpace.
type SearchSpaceJSON struct {
	DBLen  int `json:"dbLen"`            // full database length in residues
	DBSeqs int `json:"dbSeqs,omitempty"` // full database sequence count
}

// JobRequestJSON is a submitted comparison: a query bank against
// either a subject bank or a genome (nucleotide string, tblastn-style).
type JobRequestJSON struct {
	Query   []SequenceJSON `json:"query"`
	Subject []SequenceJSON `json:"subject,omitempty"`
	Genome  string         `json:"genome,omitempty"`
	Options OptionsJSON    `json:"options"`
}

// JobStatusJSON is the status response.
type JobStatusJSON struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Mode      string     `json:"mode"` // "bank" or "genome"
	TraceID   string     `json:"traceId,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// Summary fields, present once the job is done.
	Alignments *int           `json:"alignments,omitempty"`
	Hits       *int           `json:"hits,omitempty"`
	Pairs      *int64         `json:"pairs,omitempty"`
	WallMS     *float64       `json:"wallMS,omitempty"`
	Shards     map[string]int `json:"shardsByBackend,omitempty"`
}

// AlignmentJSON is one reported alignment.
type AlignmentJSON struct {
	Query    string  `json:"query"`
	Subject  string  `json:"subject"`
	Score    int     `json:"score"`
	BitScore float64 `json:"bitScore"`
	EValue   float64 `json:"eValue"`
	QStart   int     `json:"qStart"`
	QEnd     int     `json:"qEnd"`
	SStart   int     `json:"sStart"`
	SEnd     int     `json:"sEnd"`
	// Genome-mode extras.
	Frame    string `json:"frame,omitempty"`
	NucStart *int   `json:"nucStart,omitempty"`
	NucEnd   *int   `json:"nucEnd,omitempty"`
}

// writeJSON encodes v as the response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the API's {"error": ...} response — the shape
// Client.readError decodes.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// CoreOptions translates the wire options into typed core options, in
// the order NewSearcher applies them. It parses names (engine, genetic
// code) and nothing else: every range check lives in the
// With* setter, so a bad value fails NewSearcher with the same message
// whether it arrived as JSON or as a cmd/seedcmp flag.
func (oj OptionsJSON) CoreOptions() ([]core.Option, error) {
	engine, err := core.ParseEngine(oj.Engine)
	if err != nil {
		return nil, err
	}
	opts := []core.Option{
		core.WithEngine(engine),
		core.WithWorkers(oj.Workers),
		core.WithPipeline(pipeline.Config{
			ShardSize:    oj.ShardSize,
			InFlight:     oj.InFlight,
			Step2Workers: oj.StreamWorkers,
			Step3Workers: oj.StreamWorkers,
		}),
	}
	if oj.N != nil {
		opts = append(opts, core.WithNeighborhood(*oj.N))
	}
	if oj.Threshold != nil {
		opts = append(opts, core.WithUngappedThreshold(*oj.Threshold))
	}
	if oj.MaxEValue != nil {
		opts = append(opts, core.WithMaxEValue(*oj.MaxEValue))
	}
	if oj.MaxCandidates != nil {
		opts = append(opts, core.WithMaxCandidates(*oj.MaxCandidates))
	}
	if oj.GeneticCode != "" {
		code, err := translate.CodeByName(oj.GeneticCode)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithGeneticCode(code))
	}
	if oj.SearchSpace != nil {
		sp := stats.SearchSpace{DBLen: oj.SearchSpace.DBLen, DBSeqs: oj.SearchSpace.DBSeqs}
		// Presence is a wire notion the setter cannot see: a zero
		// geometry would silently mean "no override".
		if sp.IsZero() {
			return nil, fmt.Errorf("searchSpace present but empty (needs dbLen)")
		}
		opts = append(opts, core.WithSearchSpace(sp))
	}
	return opts, nil
}

// decodeBank encodes seqs into b. With a nil b it only checks their
// residues and allocates nothing: a forwarded bank stays in wire form.
func decodeBank(name string, seqs []SequenceJSON, b *bank.Bank) error {
	for i, sj := range seqs {
		var enc []byte
		var err error
		if b == nil {
			err = alphabet.CheckProtein(sj.Seq)
		} else {
			enc, err = alphabet.EncodeProtein(sj.Seq)
		}
		if err == nil && b == nil {
			continue
		}
		id := sj.ID
		if id == "" {
			id = fmt.Sprintf("%s%d", name, i)
		}
		if err != nil {
			return fmt.Errorf("sequence %q: %w", id, err)
		}
		b.Add(id, enc)
	}
	return nil
}

// request checks a submitted body and turns it into a Request. Options
// are validated by building the Searcher, and residues are checked,
// however the job will run, so a coordinator rejects at submit what its
// workers would. An in-process service decodes the banks; a forwarding
// one (Config.Run) keeps the body as it arrived.
func (s *Service) request(body *JobRequestJSON) (*Request, error) {
	forward := s.cfg.Run != nil
	switch {
	case len(body.Query) == 0:
		return nil, errors.New("request needs a query bank")
	case (len(body.Subject) == 0) == (body.Genome == ""):
		return nil, errors.New("request needs exactly one of subject or genome")
	case forward && body.Genome != "":
		// The coordinator partitions a subject bank; a genome has no cut yet.
		return nil, errors.New("cluster serves bank-vs-bank jobs; submit genome jobs to a worker directly")
	case forward && body.Options.SearchSpace != nil:
		return nil, errors.New("searchSpace is set by the coordinator; submit without it")
	}
	opts, err := body.Options.CoreOptions()
	if err != nil {
		return nil, fmt.Errorf("options: %w", err)
	}
	req := &Request{}
	if req.Searcher, err = core.NewSearcher(opts...); err != nil {
		return nil, fmt.Errorf("options: %w", err)
	}
	if forward {
		req.Body = body
	} else {
		req.Query = bank.New("query")
		if body.Genome == "" {
			req.Subject = bank.New("subject")
		}
	}
	if err := decodeBank("query", body.Query, req.Query); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if body.Genome != "" {
		if req.Genome, err = alphabet.EncodeDNA(body.Genome); err != nil {
			return nil, fmt.Errorf("genome: %w", err)
		}
	} else if err := decodeBank("subject", body.Subject, req.Subject); err != nil {
		return nil, fmt.Errorf("subject: %w", err)
	}
	return req, nil
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	// Bounded here too, so that the server closes the connection after
	// answering a body over the limit.
	body, err := DecodeJobRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	req, err := h.svc.request(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.TraceID = r.Header.Get(telemetry.TraceHeader)
	j, err := h.svc.Submit(req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id": j.ID(), "state": string(j.State()), "traceId": j.Trace().ID(),
	})
}

// jobStatus builds the status reply from one snapshot of the job, so a
// job finishing mid-call is reported either running or done with its
// finish time and summary — never half of each.
func jobStatus(j *Job) JobStatusJSON {
	snap := j.Snapshot()
	st := JobStatusJSON{
		ID:        j.ID(),
		State:     string(snap.State),
		Mode:      "bank",
		TraceID:   j.Trace().ID(),
		Submitted: snap.Submitted,
	}
	if j.req.Genome != nil {
		st.Mode = "genome"
	}
	if !snap.Started.IsZero() {
		st.Started = &snap.Started
	}
	if !snap.Finished.IsZero() {
		st.Finished = &snap.Finished
	}
	if snap.Err != nil {
		st.Error = snap.Err.Error()
	}
	if res := snap.Result; res != nil {
		n := len(res.Alignments)
		st.Alignments = &n
		st.Hits = &res.Hits
		st.Pairs = &res.Pairs
		st.WallMS = &res.WallMS
		st.Shards = res.Shards
	}
	return st
}

func (h *handler) list(w http.ResponseWriter, _ *http.Request) {
	jobs := h.svc.Jobs()
	out := make([]JobStatusJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, jobStatus(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := h.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := h.lookup(w, r); ok && awaitJob(w, r, j.Done()) {
		writeJSON(w, http.StatusOK, jobStatus(j))
	}
}

// MaxWait caps how long a status request may ask to be held. It sits
// below the 60 s response timeout of NewClient's default HTTP client.
const MaxWait = 30 * time.Second

// awaitJob serves the wait parameter of GET /v1/jobs/{id}:
// ?wait=<duration> holds the request until done is closed, the
// duration (clamped to MaxWait) runs out or the client goes away, and
// the caller then answers with whatever state the job is in — an
// expired wait is a 200 with a non-terminal state. Without the
// parameter it returns at once. A malformed or negative duration gets
// a 400 here and the result is false.
func awaitJob(w http.ResponseWriter, r *http.Request, done <-chan struct{}) bool {
	d, err := waitParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	if d == 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-r.Context().Done():
	}
	return true
}

// waitParam reads the wait parameter: zero when absent, at most MaxWait.
func waitParam(r *http.Request) (time.Duration, error) {
	arg := r.URL.Query().Get("wait")
	if arg == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(arg)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("wait=%q: want a non-negative duration such as 30s", arg)
	}
	return min(d, MaxWait), nil
}

// trace serves the job's span trace — the per-request equivalent of
// the paper's per-stage wall-time table. Live while the job runs: the
// snapshot holds whatever spans have finished so far.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	if j, ok := h.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Trace().JSON())
	}
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := h.lookup(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": j.ID(), "state": string(j.State())})
	}
}

func (h *handler) alignments(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookup(w, r)
	if !ok {
		return
	}
	snap := j.Snapshot()
	switch snap.State {
	case JobFailed:
		writeError(w, http.StatusConflict, "job failed: %v", snap.Err)
		return
	case JobQueued, JobRunning:
		writeError(w, http.StatusConflict, "job is %s; GET /v1/jobs/%s?wait=30s returns when it ends", snap.State, j.ID())
		return
	}
	aligns := snap.Result.Alignments
	if r.URL.Query().Get("stream") == "1" {
		writeNDJSON(w, aligns)
		return
	}
	if aligns == nil {
		// A zero-match merge is nil; the wire contract is an empty array.
		aligns = []AlignmentJSON{}
	}
	writeJSON(w, http.StatusOK, aligns)
}

// writeNDJSON streams records as application/x-ndjson — one JSON
// object per line, the bytes json.Encoder would write, flushed every
// streamFlushEvery lines so consumers decode results while the response
// is still being written. The status line is out before the first
// record, so a record that cannot be encoded or written aborts the
// connection: the reader sees a torn stream, never a short body that
// ends cleanly.
func writeNDJSON(w http.ResponseWriter, aligns []AlignmentJSON) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var buf []byte
	flush := func() {
		if _, err := w.Write(buf); err != nil {
			panic(http.ErrAbortHandler)
		}
		_ = rc.Flush()
		buf = buf[:0]
	}
	for i := range aligns {
		var err error
		if buf, err = appendAlignment(buf, &aligns[i]); err != nil {
			panic(http.ErrAbortHandler)
		}
		buf = append(buf, '\n')
		if (i+1)%streamFlushEvery == 0 {
			flush()
		}
	}
	flush()
}

// MatchJSON renders a match in the service's wire encoding: the query
// id from the match's query locus, the subject id from its subject
// locus (the frame string for genome targets — the subject sequences
// are the six frame translations), and — when the subject side is
// translated — the frame and nucleotide interval the genome-mode API
// reports. cmd/seedcmp's machine-readable output uses it so CLI and
// service speak one dialect.
func MatchJSON(m *core.Match) AlignmentJSON {
	aj := AlignmentJSON{
		Query:    m.Query.ID,
		Subject:  m.Subject.ID,
		Score:    m.Score,
		BitScore: m.BitScore,
		EValue:   m.EValue,
		QStart:   m.Q.Start,
		QEnd:     m.Q.End,
		SStart:   m.S.Start,
		SEnd:     m.S.End,
	}
	if m.Subject.Translated() {
		aj.Frame = m.Subject.Frame.String()
		ns, ne := m.Subject.NucStart, m.Subject.NucEnd
		aj.NucStart, aj.NucEnd = &ns, &ne
	}
	return aj
}
