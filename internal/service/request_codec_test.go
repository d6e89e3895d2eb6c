package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
)

// requestCorpus crosses plain, escape-needing and non-ASCII strings,
// absent, empty and filled banks, genome mode and every OptionsJSON
// field, so that both the codec's fast paths and its hand-offs to
// encoding/json are reached.
func requestCorpus() []JobRequestJSON {
	ids := []string{"q0", "", "sp|P12345|KINASE_HUMAN", "with space", `say "hi"`, `back\slash`, "a<b>&c", "tab\there", "é-utf8", "bad\xffutf8", "日本語"}
	seqs := []string{"MKVLAAGIVGL", "", "ACDEFGHIKLMNPQRSTVWYBZX*", "lower-case ok", "new\nline"}
	genomes := []string{"", "ACGTTGCAACGTNNACGT", "acgt<tag>"}
	ev, zero := 1e-5, 0
	options := []OptionsJSON{
		{},
		{Engine: "rasc", N: intp(3), Threshold: intp(40), MaxEValue: &ev, Workers: 2,
			ShardSize: 4, GeneticCode: "vertebrate-mito", MaxCandidates: intp(100),
			SearchSpace: &SearchSpaceJSON{DBLen: 1_500_000, DBSeqs: 5000}},
		{SearchSpace: &SearchSpaceJSON{DBLen: 600_000}},
		{N: &zero, MaxEValue: new(float64), MaxCandidates: &zero},
		{Engine: "a<b>&c", GeneticCode: "é"},
	}
	bankOf := func(n, from int) []SequenceJSON {
		switch n {
		case -1:
			return nil
		case 0:
			return []SequenceJSON{}
		}
		out := make([]SequenceJSON, n)
		for k := range out {
			// Mostly plain records, one string in seven from the rest.
			i := from + k
			out[k] = SequenceJSON{ID: ids[0], Seq: seqs[0]}
			if i%7 == 3 {
				out[k].ID = ids[i%len(ids)]
			}
			if i%7 == 5 {
				out[k].Seq = seqs[i%len(seqs)]
			}
		}
		return out
	}
	var out []JobRequestJSON
	for i := 0; i < 240; i++ {
		out = append(out, JobRequestJSON{
			Query:   bankOf(i%5-1, i),
			Subject: bankOf((i/5)%4-1, 3*i),
			Genome:  genomes[(i/20)%len(genomes)],
			Options: options[(i/60+i)%len(options)],
		})
	}
	return out
}

// plainRequest reports whether the fast encoder writes req itself.
func plainRequest(req *JobRequestJSON) bool {
	_, err := json.Marshal(&req.Options)
	return err == nil && plainSeqs(req.Query) && plainSeqs(req.Subject) && plainString(req.Genome)
}

// TestJobRequestCodecMatchesEncodingJSON pins the request codec to its
// reference: appendJobRequest's bytes are json.Marshal's, and the body
// decodes — through parseJobRequest when it recognises the body, else
// through encoding/json — to what json.Unmarshal alone makes of it.
func TestJobRequestCodecMatchesEncodingJSON(t *testing.T) {
	fast := 0
	for _, req := range requestCorpus() {
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJobRequest([]byte("prefix"), &req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("encode differs\n got  %s\n want %s", got[len("prefix"):], want)
		}

		var ref JobRequestJSON
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if dec, ok := parseJobRequest(want); ok {
			fast++
			if !reflect.DeepEqual(*dec, ref) {
				t.Fatalf("decode of %s differs\n got  %+v\n want %+v", want, *dec, ref)
			}
		} else if plainRequest(&req) && req.Query != nil {
			t.Fatalf("fast path refused a body the fast encoder wrote: %s", want)
		}
		dec, err := DecodeJobRequest(bytes.NewReader(want))
		if err != nil || !reflect.DeepEqual(*dec, ref) {
			t.Fatalf("DecodeJobRequest(%s) = %+v, %v; want %+v", want, dec, err, ref)
		}
	}
	if fast == 0 {
		t.Fatal("no corpus request took the fast path")
	}

	// What encoding/json refuses, the codec refuses with the same error.
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		req := JobRequestJSON{Query: []SequenceJSON{{ID: "q", Seq: "M"}}, Options: OptionsJSON{MaxEValue: &f}}
		_, want := json.Marshal(&req)
		_, got := appendJobRequest(nil, &req)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%v: codec error %v, encoding/json error %v", f, got, want)
		}
	}
}

var errCut = errors.New("connection reset mid-body")

// TestParseJobRequestLeavesTheRestToEncodingJSON lists bodies outside
// json.Marshal's form — valid for encoding/json, or invalid for
// everyone — and checks that DecodeJobRequest answers each exactly as
// json.NewDecoder(body).Decode does: the same value, or the same error.
func TestParseJobRequestLeavesTheRestToEncodingJSON(t *testing.T) {
	const (
		q    = `{"query":[{"id":"q","seq":"MKV"}]`
		s    = `,"subject":[{"id":"s","seq":"MKW"}]`
		body = q + s + `,"options":{}}`
	)
	pretty, err := json.MarshalIndent(JobRequestJSON{Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}, Subject: []SequenceJSON{{ID: "s", Seq: "MKW"}}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body string
		cut  bool // the body ends in a read error rather than EOF
		fast bool // the fast path may claim it (its options are unusual, not its form)
	}{
		{name: "pretty-printed", body: string(pretty)},
		{name: "space after colon", body: `{"query": [{"id":"q","seq":"MKV"}]` + s + `,"options":{}}`},
		{name: "key order", body: `{"subject":[{"id":"s","seq":"MKW"}],"query":[{"id":"q","seq":"MKV"}],"options":{}}`},
		{name: "record key order", body: `{"query":[{"seq":"MKV","id":"q"}]` + s + `,"options":{}}`},
		{name: "key case", body: `{"Query":[{"id":"q","seq":"MKV"}]` + s + `,"options":{}}`},
		{name: "record key case", body: `{"query":[{"ID":"q","seq":"MKV"}]` + s + `,"options":{}}`},
		{name: "unknown field", body: q + s + `,"kernel":"swar","options":{}}`},
		{name: "retired kernel option", body: q + s + `,"options":{"kernel":"swar","maxEValue":10}}`, fast: true},
		{name: "option key case", body: q + s + `,"options":{"MaxEValue":10,"N":2}}`, fast: true},
		{name: "options with white space", body: q + s + `,"options": { "searchSpace": {"dbLen": 9} } }`, fast: true},
		{name: "escape", body: `{"query":[{"id":"q\u0041","seq":"MKV"}]` + s + `,"options":{}}`},
		{name: "escaped slash", body: `{"query":[{"id":"q","seq":"M\/KV"}]` + s + `,"options":{}}`},
		{name: "non-ASCII", body: `{"query":[{"id":"é","seq":"MKV"}]` + s + `,"options":{}}`},
		{name: "invalid UTF-8", body: "{\"query\":[{\"id\":\"\xff\",\"seq\":\"MKV\"}]" + s + `,"options":{}}`},
		{name: "null query", body: `{"query":null` + s + `,"options":{}}`},
		{name: "null subject", body: q + `,"subject":null,"options":{}}`},
		{name: "null record", body: `{"query":[null]` + s + `,"options":{}}`},
		{name: "null options", body: q + s + `,"options":null}`, fast: true},
		{name: "empty subject", body: q + `,"subject":[],"options":{}}`, fast: true},
		{name: "empty genome", body: q + `,"genome":"","options":{}}`, fast: true},
		{name: "no options", body: q + s + `}`},
		{name: "null body", body: `null`},
		{name: "empty object", body: `{}`},
		{name: "trailing newline", body: body + "\n"},
		{name: "trailing value", body: body + `{"query":[]}`},
		{name: "trailing garbage", body: body + `garbage`},
		{name: "trailing brace", body: q + s + `,"options":{}}}`},
		{name: "duplicate key after options", body: q + s + `,"options":{},"query":[{"id":"q2","seq":"MKVW"}]}`},
		{name: "empty body", body: ``},
		{name: "truncated", body: body[:len(body)-3]},
		{name: "record not an object", body: `{"query":["MKV"]` + s + `,"options":{}}`},
		{name: "wrong type", body: `{"query":"MKV"` + s + `,"options":{}}`},
		{name: "option of the wrong type", body: q + s + `,"options":{"n":"3"}}`},
		{name: "options not an object", body: q + s + `,"options":[]}`},
		{name: "read error after the value", body: body, cut: true, fast: true},
		{name: "read error mid-value", body: body[:40], cut: true},
	} {
		open := func() io.Reader {
			if c.cut {
				return io.MultiReader(strings.NewReader(c.body), errReader{errCut})
			}
			return strings.NewReader(c.body)
		}
		var want JobRequestJSON
		wantErr := json.NewDecoder(open()).Decode(&want)
		got, gotErr := DecodeJobRequest(open())
		switch {
		case (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()):
			t.Errorf("%s: error %v, encoding/json says %v", c.name, gotErr, wantErr)
		case gotErr == nil && !reflect.DeepEqual(*got, want):
			t.Errorf("%s: decoded %+v, encoding/json %+v", c.name, *got, want)
		}
		if _, ok := parseJobRequest([]byte(c.body)); ok && !c.fast {
			t.Errorf("%s: fast path claimed %q", c.name, c.body)
		}
	}
}

// FuzzJobRequest: the fast path never panics, and whenever it accepts
// a body, json.Unmarshal accepts it too and agrees on every field.
// DecodeJobRequest answers every body as json.Decoder does.
func FuzzJobRequest(f *testing.F) {
	for i, req := range requestCorpus() {
		if i%11 == 0 {
			b, _ := json.Marshal(&req)
			f.Add(b)
		}
	}
	f.Add([]byte(`{"query":[{"id":"q","seq":"MKV"}],"genome":"ACGT","options":{"n":2,"searchSpace":{"dbLen":9}}}`))
	f.Add([]byte(`{"query":[],"subject":[{"id":"","seq":""},{"id":"s","seq":"W"}],"options":{"kernel":"swar"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := parseJobRequest(body); ok {
			var want JobRequestJSON
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json says %v", body, err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("%q\n fast %+v\n json %+v", body, *got, want)
			}
		}
		var want JobRequestJSON
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, err := DecodeJobRequest(bytes.NewReader(body))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) ||
			(err == nil && !reflect.DeepEqual(*got, want)) {
			t.Fatalf("%q: DecodeJobRequest %+v, %v; encoding/json %+v, %v", body, got, err, want, wantErr)
		}
	})
}

// BenchmarkJobRequestCodec measures both directions of the request
// codec against encoding/json on two body shapes: serve_hot's (4
// queries and 64 subjects of 300 aa, 68 records) and one cluster
// volume of the homolog bank (16 queries and 2 500 subjects of ~120
// aa, with the searchSpace the coordinator sets).
func BenchmarkJobRequestCodec(b *testing.B) {
	wire := func(n, meanLen int, seed int64) []SequenceJSON {
		bk := bank.GenerateProteins(bank.ProteinConfig{N: n, MeanLen: meanLen, LenJitter: 15, Seed: seed})
		out := make([]SequenceJSON, bk.Len())
		for i := range out {
			out[i] = SequenceJSON{ID: bk.ID(i), Seq: alphabet.DecodeProtein(bk.Seq(i))}
		}
		return out
	}
	for _, shape := range []struct {
		name string
		req  JobRequestJSON
	}{
		{"serve_hot", JobRequestJSON{Query: wire(4, 120, 1), Subject: wire(64, 300, 2)}},
		{"volume", JobRequestJSON{Query: wire(16, 120, 3), Subject: wire(2500, 120, 4),
			Options: OptionsJSON{SearchSpace: &SearchSpaceJSON{DBLen: 600_000, DBSeqs: 5000}}}},
	} {
		body, err := json.Marshal(&shape.req)
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, f func() error) {
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("encode", func() error { _, err := appendJobRequest(nil, &shape.req); return err })
		run("encode-json", func() error { _, err := json.Marshal(&shape.req); return err })
		run("decode", func() error { _, err := DecodeJobRequest(bytes.NewReader(body)); return err })
		run("decode-json", func() error {
			var req JobRequestJSON
			return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		})
	}
}
