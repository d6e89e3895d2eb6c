package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
)

// The job request codec. A submitted body is mostly sequence text — 21
// KB for a serve_hot job, hundreds of KB for a cluster volume — and it
// is encoded and decoded once per hop: client to coordinator,
// coordinator to each worker. The pattern is the alignment codec's:
// appendJobRequest writes the exact bytes json.Marshal would,
// parseJobRequest accepts exactly what json.Marshal writes (and so what
// appendJobRequest writes), and anything else — white space, another
// key order or case, an unknown field, an escape, a null, trailing data
// — is left to encoding/json, which stays the reference and the
// fallback. TestJobRequestCodecMatchesEncodingJSON and FuzzJobRequest
// pin both directions.

// DecodeJobRequest reads a submitted job body, at most MaxRequestBytes
// of it, and decodes it as json.NewDecoder(r).Decode would: the same
// value for any body, the same error for a body it rejects. The submit
// handler calls it.
func DecodeJobRequest(r io.Reader) (*JobRequestJSON, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, io.NopCloser(r), MaxRequestBytes))
	raw := buf.Bytes()
	var rest io.Reader = bytes.NewReader(raw)
	if err != nil {
		// A decoder reading r would have seen these bytes, then err.
		rest = io.MultiReader(rest, errReader{err})
	} else if req, ok := parseJobRequest(raw); ok {
		return req, nil
	}
	req := &JobRequestJSON{}
	if err := json.NewDecoder(rest).Decode(req); err != nil {
		return nil, err
	}
	return req, nil
}

// maxPooledBody caps the read buffers DecodeJobRequest keeps for reuse,
// so one large volume body does not stay pinned in the pool.
const maxPooledBody = 1 << 20

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseJobRequest decodes a body written by json.Marshal. ok is false
// for anything else, and the body then belongs to encoding/json; when
// ok is true the result equals json.Unmarshal's. The options object is
// small and varied, so it is handed to json.Unmarshal as a sub-slice —
// with a searchSpace, as the coordinator sends to workers, the body
// still takes the fast path.
func parseJobRequest(raw []byte) (*JobRequestJSON, bool) {
	req := &JobRequestJSON{}
	p := lineParser{b: raw}
	p.lit(`{"query":`)
	req.Query = p.seqs()
	if p.has(`,"subject":`) {
		req.Subject = p.seqs()
	}
	if p.has(`,"genome":`) {
		req.Genome = string(p.str(`"`))
	}
	p.lit(`,"options":`)
	// Options is the last field, so its object runs to the body's
	// closing brace; json.Unmarshal rejects a sub-slice that holds more
	// than the one value.
	if n := len(p.b) - 1; p.bad || n < 0 || p.b[n] != '}' || json.Unmarshal(p.b[:n], &req.Options) != nil {
		return nil, false
	}
	return req, true
}

// seqs consumes a JSON array of sequence records, as json.Marshal
// writes it.
func (p *lineParser) seqs() []SequenceJSON {
	out := []SequenceJSON{}
	if p.has("[]") {
		return out
	}
	p.lit("[")
	for !p.bad {
		id := p.str(`{"id":"`)
		seq := p.str(`,"seq":"`)
		p.lit("}")
		out = append(out, SequenceJSON{ID: string(id), Seq: string(seq)})
		if !p.has(",") {
			break
		}
	}
	p.lit("]")
	return out
}

// appendJobRequest appends req's JSON object to dst, byte for byte what
// json.Marshal(req) returns, including its error.
func appendJobRequest(dst []byte, req *JobRequestJSON) ([]byte, error) {
	opts, err := json.Marshal(&req.Options)
	if err != nil || !plainSeqs(req.Query) || !plainSeqs(req.Subject) || !plainString(req.Genome) {
		b, err := json.Marshal(req)
		return append(dst, b...), err
	}
	n := len(`{"query":null,"subject":,"genome":"","options":}`) + len(req.Genome) + len(opts)
	for _, s := range req.Query {
		n += len(`{"id":"","seq":""},`) + len(s.ID) + len(s.Seq)
	}
	for _, s := range req.Subject {
		n += len(`{"id":"","seq":""},`) + len(s.ID) + len(s.Seq)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, `{"query":`...)
	dst = appendSeqs(dst, req.Query)
	if len(req.Subject) > 0 {
		dst = append(dst, `,"subject":`...)
		dst = appendSeqs(dst, req.Subject)
	}
	if req.Genome != "" {
		dst = append(dst, `,"genome":"`...)
		dst = append(dst, req.Genome...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"options":`...)
	dst = append(dst, opts...)
	return append(dst, '}'), nil
}

func plainSeqs(seqs []SequenceJSON) bool {
	for _, s := range seqs {
		if !plainString(s.ID) || !plainString(s.Seq) {
			return false
		}
	}
	return true
}

func appendSeqs(dst []byte, seqs []SequenceJSON) []byte {
	if seqs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range seqs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":"`...)
		dst = append(dst, s.ID...)
		dst = append(dst, `","seq":"`...)
		dst = append(dst, s.Seq...)
		dst = append(dst, `"}`...)
	}
	return append(dst, ']')
}
