package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/core"
)

func intp(v int) *int { return &v }

// codecCorpus crosses the ids, numbers and optional fields that reach
// every branch of the codec and of encoding/json's own formatting.
func codecCorpus() []AlignmentJSON {
	ids := []string{
		"q0", "", "sp|P12345|KINASE_HUMAN", "with space", `say "hi"`, `back\slash`, "a<b>&c",
		"tab\there", "nul\x00", "del\x7f", "é-utf8", "bad\xff\xfeutf8", "line\u2028sep", "日本語",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999e-7, 1e-6, 0.1, 1, 57.3, 123456.789,
		1e20, 1e21, 1.7976931348623157e308, -2.5, -1e-9, -1e21,
	}
	ints := []int{0, 1, -1, 42, -317, 1 << 40, math.MaxInt64, math.MinInt64}
	var out []AlignmentJSON
	for i, id := range ids {
		for j, f := range floats {
			a := AlignmentJSON{
				Query: id, Subject: ids[(i+j)%len(ids)],
				Score:    ints[(i+j)%len(ints)],
				BitScore: floats[(i+j)%len(floats)], EValue: f,
				QStart: ints[j%len(ints)], QEnd: ints[(j+1)%len(ints)],
				SStart: ints[(i+2)%len(ints)], SEnd: ints[(i+3)%len(ints)],
			}
			switch (i + j) % 4 {
			case 1:
				a.Frame, a.NucStart, a.NucEnd = "+1", intp(ints[i%len(ints)]), intp(ints[j%len(ints)])
			case 2:
				a.Frame = id // a frame alone, and one that may need escaping
			case 3:
				a.NucEnd = intp(-7) // an end without a start or a frame
			}
			out = append(out, a)
		}
	}
	return out
}

// TestAlignmentCodecMatchesEncodingJSON pins the codec to its
// reference: appendAlignment's bytes are json.Marshal's, and a line
// decodes — through parseAlignment when it recognises the line, else
// through json.Unmarshal — to what json.Unmarshal alone makes of it.
func TestAlignmentCodecMatchesEncodingJSON(t *testing.T) {
	fast := 0
	for _, a := range codecCorpus() {
		want, err := json.Marshal(&a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendAlignment([]byte("prefix"), &a)
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("encode differs\n got  %s\n want %s", got[len("prefix"):], want)
		}

		var ref AlignmentJSON
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if dec, ok := parseAlignment(want); ok {
			fast++
			if !reflect.DeepEqual(dec, ref) || math.Signbit(dec.EValue) != math.Signbit(ref.EValue) {
				t.Fatalf("decode of %s differs\n got  %+v\n want %+v", want, dec, ref)
			}
		} else if plainString(a.Query) && plainString(a.Subject) && plainString(a.Frame) {
			t.Fatalf("fast path refused a line the fast encoder wrote: %s", want)
		}
	}
	if fast == 0 {
		t.Fatal("no corpus record took the fast path")
	}

	// What encoding/json refuses, the codec refuses with the same error.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []AlignmentJSON{{Query: "q", EValue: f}, {Query: "q", BitScore: f}} {
			_, want := json.Marshal(&a)
			_, got := appendAlignment(nil, &a)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%v: codec error %v, encoding/json error %v", f, got, want)
			}
		}
	}
}

// TestPlainPrefixMatchesByteRule checks the eight-bytes-at-a-time scan
// against the rule it implements, one byte at a time: every byte value
// at every position of a word, a word and a half, and a tail.
func TestPlainPrefixMatchesByteRule(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for p := 0; p < n; p++ {
			for c := 0; c < 256; c++ {
				b := bytes.Repeat([]byte("A"), n)
				b[p] = byte(c)
				want := n
				if c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, byte(c)) >= 0 {
					want = p
				}
				if got := plainPrefix(b); got != want {
					t.Fatalf("plainPrefix(%q) = %d, want %d", b, got, want)
				}
				if got := plainPrefix(string(b)); got != want {
					t.Fatalf("plainPrefix(string %q) = %d, want %d", b, got, want)
				}
			}
		}
	}
}

// TestParseAlignmentLeavesTheRestToEncodingJSON lists lines that are
// valid for json.Unmarshal, or invalid for everyone, and that the fast
// path must not claim.
func TestParseAlignmentLeavesTheRestToEncodingJSON(t *testing.T) {
	const tail = `,"score":1,"bitScore":2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7`
	for _, line := range []string{
		`{"subject":"s","query":"q"` + tail + `}`,                                                                                  // key order
		`{"query":"q", "subject":"s"` + tail + `}`,                                                                                 // white space
		`{"query":"q","subject":"s"` + tail + `,"extra":true}`,                                                                     // unknown field
		`{"query":"q\u0041","subject":"s"` + tail + `}`,                                                                            // escape
		`{"query":"é","subject":"s"` + tail + `}`,                                                                                  // non-ASCII
		`{"query":"q","subject":"s"` + tail + `} `,                                                                                 // trailing space
		`{"query":"q","subject":"s"` + tail + `}{}`,                                                                                // trailing garbage
		`{"query":"q","subject":"s"` + tail,                                                                                        // truncated
		`{"query":"q","subject":"s","score":01,"bitScore":2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`,                   // leading zero
		`{"query":"q","subject":"s","score":1.0,"bitScore":2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`,                  // fraction in an int
		`{"query":"q","subject":"s","score":99999999999999999999,"bitScore":2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`, // int overflow
		`{"query":"q","subject":"s","score":1,"bitScore":2,"eValue":1e999,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`,                // float overflow
		`{"query":"q","subject":"s","score":1,"bitScore":+2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`,                   // not a JSON number
		`{"query":"q","subject":"s","score":1,"bitScore":.5,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`,
		`{"query":"q","subject":"s","score":1,"bitScore":0x10,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`,
		`{"query":"q","subject":"s"` + tail + `,"nucStart":null}`,
		`{"query":"q","subject":"s"` + tail + `,"nucEnd":8,"nucStart":9}`, // optional fields out of order
		``, `{}`, `null`, `[]`,
	} {
		if a, ok := parseAlignment([]byte(line)); ok {
			t.Errorf("fast path claimed %q as %+v", line, a)
		}
	}
}

// FuzzAlignmentLine: the decoder never panics, and whenever the fast
// path accepts a line, json.Unmarshal accepts it too and agrees on
// every field.
func FuzzAlignmentLine(f *testing.F) {
	for i, a := range codecCorpus() {
		if i%7 == 0 {
			b, _ := json.Marshal(&a)
			f.Add(b)
		}
	}
	f.Add([]byte(`{"query":"q","subject":"s","score":-0,"bitScore":1E5,"eValue":1e-400,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7,"frame":""}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := parseAlignment(line)
		if !ok {
			return
		}
		var want AlignmentJSON
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json says %v", line, err)
		}
		if !reflect.DeepEqual(got, want) ||
			math.Signbit(got.EValue) != math.Signbit(want.EValue) || math.Signbit(got.BitScore) != math.Signbit(want.BitScore) {
			t.Fatalf("%q\n fast %+v\n json %+v", line, got, want)
		}
	})
}

// FuzzAlignmentKey: the coordinator's key reader accepts exactly the
// lines parseAlignment accepts, and reads the same query, subject and
// E-value from them.
func FuzzAlignmentKey(f *testing.F) {
	for i, a := range codecCorpus() {
		if i%7 == 0 {
			b, _ := json.Marshal(&a)
			f.Add(b)
		}
	}
	const tail = `,"score":1,"bitScore":2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7`
	f.Add([]byte(`{"query":"q","subject":"s"` + tail + `,"frame":"+2","nucStart":9,"nucEnd":99}`))
	f.Add([]byte(`{"subject":"s","query":"q"` + tail + `}`))
	f.Add([]byte(`{"query":"q","subject":"s","score":99999999999999999999,"bitScore":2,"eValue":3,"qStart":4,"qEnd":5,"sStart":6,"sEnd":7}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		q, s, e, ok := alignmentKey(line)
		a, want := parseAlignment(line)
		if ok != want {
			t.Fatalf("%q: key reader accepts %v, parseAlignment %v", line, ok, want)
		}
		if ok && (string(q) != a.Query || string(s) != a.Subject || math.Float64bits(e) != math.Float64bits(a.EValue)) {
			t.Fatalf("%q: key (%q, %q, %v), parseAlignment (%q, %q, %v)", line, q, s, e, a.Query, a.Subject, a.EValue)
		}
	})
}

// TestStreamBodyMatchesJSONEncoder is the wire golden: the ?stream=1
// body of a finished job is, byte for byte, what a json.Encoder writes
// for the standalone run's matches one by one — what the route served
// before the codec — and the array fetch what it writes for the slice.
func TestStreamBodyMatchesJSONEncoder(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 23)
	genome := testGenomeString(t, b0)
	dna, err := alphabet.EncodeDNA(genome)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	ev := 10.0
	for name, c := range map[string]struct {
		req    JobRequestJSON
		target core.Target
	}{
		"bank":   {JobRequestJSON{Query: bankToJSON(b0), Subject: bankToJSON(b1), Options: OptionsJSON{MaxEValue: &ev}}, core.NewProteinTarget(b1)},
		"genome": {JobRequestJSON{Query: bankToJSON(b0), Genome: genome, Options: OptionsJSON{MaxEValue: &ev}}, core.NewGenomeTarget(dna, nil)},
		"empty":  {JobRequestJSON{Query: bankToJSON(b0)[:1], Subject: bankToJSON(b1)[1:2], Options: OptionsJSON{MaxEValue: &ev}}, nil},
	} {
		id := submitAndFinish(t, ts, c.req)
		var want, wantArray bytes.Buffer
		aligns := []AlignmentJSON{}
		if c.target != nil {
			enc := json.NewEncoder(&want)
			for _, m := range library(t, testSearcher(t), b0, c.target).Matches {
				aj := MatchJSON(&m)
				if err := enc.Encode(aj); err != nil {
					t.Fatal(err)
				}
				aligns = append(aligns, aj)
			}
			if len(aligns) == 0 {
				t.Fatalf("%s job has no alignments; the golden compares nothing", name)
			}
		}
		if err := json.NewEncoder(&wantArray).Encode(aligns); err != nil {
			t.Fatal(err)
		}
		for query, want := range map[string][]byte{"?stream=1": want.Bytes(), "": wantArray.Bytes()} {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/alignments" + query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s%s: body (%d bytes) differs from json.Encoder output (%d bytes)", name, query, len(got), len(want))
			}
		}
	}
}

// A non-finite score is refused when the job's result is encoded, so
// runLocal fails the job at its end instead of serving a torn fetch.
func TestNonFiniteScoreFailsEncode(t *testing.T) {
	m := core.Match{Query: core.Locus{ID: "q0"}, Subject: core.Locus{ID: "s0"}}
	if nd, err := encodeMatches([]core.Match{m}); err != nil || string(nd) != `{"query":"q0","subject":"s0","score":0,"bitScore":0,"eValue":0,"qStart":0,"qEnd":0,"sStart":0,"sEnd":0}`+"\n" {
		t.Fatalf("encodeMatches = %q, %v", nd, err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		bad := m
		bad.EValue = f
		if _, err := encodeMatches([]core.Match{m, bad}); err == nil {
			t.Errorf("E-value %v encoded", f)
		}
		bad = m
		bad.BitScore = f
		if _, err := encodeMatches([]core.Match{bad}); err == nil {
			t.Errorf("bit score %v encoded", f)
		}
	}
}

// failingWriter passes its first write through and fails every later one.
type failingWriter struct {
	http.ResponseWriter
	writes int
}

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, io.ErrClosedPipe
	}
	return w.ResponseWriter.Write(b)
}

func (w *failingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// A chunk that cannot be written must tear the connection: a reader
// may see an error, never a short body with a clean end.
func TestStreamWriteErrorTearsStream(t *testing.T) {
	// Lines of 128 bytes, so the first chunk ends at a line's end and
	// only the abort can tell the reader the body is short.
	a := AlignmentJSON{Subject: "s0"}
	line, _ := appendAlignment(nil, &a)
	a.Query = strings.Repeat("q", 127-len(line))
	line, err := appendAlignment(nil, &a)
	if err != nil || streamChunkBytes%(len(line)+1) != 0 {
		t.Fatalf("line of %d bytes: %v", len(line)+1, err)
	}
	nd := bytes.Repeat(append(line, '\n'), 3*streamChunkBytes/(len(line)+1))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeNDJSON(&failingWriter{ResponseWriter: w}, nd)
	}))
	defer ts.Close()
	n := 0
	var last error
	for _, err := range NewClient(ts.URL, ClientConfig{}).StreamAlignments(t.Context(), "job-1") {
		if last = err; err == nil {
			n++
		}
	}
	if last == nil {
		t.Fatalf("stream of %d records ended cleanly although its second chunk could not be written", n)
	}
}
