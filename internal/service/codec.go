package service

import (
	"encoding/json"
	"math"
	"strconv"
)

// The NDJSON alignment codec. AlignmentJSON is the one wire type that
// crosses the network thousands of times per job, so its encode and
// decode do not go through reflection. The pattern is the kernels': a
// fast path for the common input and encoding/json as the reference.
// appendAlignment writes the exact bytes json.Marshal would, once per
// alignment when a job ends; parseAlignment accepts exactly what
// appendAlignment writes and reports anything else as not recognised,
// for json.Unmarshal to decide. A coordinator forwards its workers'
// lines as they are and reads only their rank keys (alignmentKey).
// TestAlignmentCodecMatchesEncodingJSON, FuzzAlignmentLine and
// FuzzAlignmentKey pin all three.

// plainString reports whether encoding/json writes s between quotes
// unchanged: printable ASCII with none of the characters it escapes
// (quote, backslash and, HTML-safe, <, > and &). Non-ASCII text is left
// to the reference, which also validates its UTF-8.
func plainString[S string | []byte](s S) bool { return plainPrefix(s) == len(s) }

// plainPrefix returns the length of s's longest plain prefix. Request
// bodies are mostly sequence text, so it tests eight bytes at a time.
func plainPrefix[S string | []byte](s S) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		t := s[i : i+8]
		x := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
		if !plainWord(x) {
			break
		}
	}
	for i < len(s) && plainByte[s[i]] {
		i++
	}
	return i
}

// plainWord reports whether all eight bytes of x are plain. A byte is
// not plain when its top bit is set, when it is below 0x20, or when it
// equals one of the five escaped characters; " and & differ in bit 2
// only, < and > in bit 1 only, so three zero-byte tests cover the five.
func plainWord(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q := (x | 0x04*ones) ^ 0x26*ones // " &
	a := (x | 0x02*ones) ^ 0x3e*ones // < >
	b := x ^ 0x5c*ones               // \
	// (v - ones) &^ v sets the high bit of some byte iff v has a zero
	// byte; (x - 0x20*ones) &^ x likewise for a byte below 0x20.
	bad := x | (x-0x20*ones)&^x | (q-ones)&^q | (a-ones)&^a | (b-ones)&^b
	return bad&highs == 0
}

// plainByte is the same rule for one byte, for a tail shorter than a
// word and for finding the byte that ended a word's run.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// LineBytes sizes buffers of NDJSON alignment lines: a bank job's line
// besides its ids (keys, newline, typical numbers).
const LineBytes = 150

// appendAlignment appends a's JSON object to dst, byte for byte what
// json.Marshal(a) returns, including its error for a NaN or infinite
// score.
func appendAlignment(dst []byte, a *AlignmentJSON) ([]byte, error) {
	if !plainString(a.Query) || !plainString(a.Subject) || !plainString(a.Frame) ||
		!finite(a.BitScore) || !finite(a.EValue) {
		b, err := json.Marshal(a)
		return append(dst, b...), err
	}
	dst = append(dst, `{"query":"`...)
	dst = append(dst, a.Query...)
	dst = append(dst, `","subject":"`...)
	dst = append(dst, a.Subject...)
	dst = append(dst, `","score":`...)
	dst = strconv.AppendInt(dst, int64(a.Score), 10)
	dst = append(dst, `,"bitScore":`...)
	dst = appendFloat(dst, a.BitScore)
	dst = append(dst, `,"eValue":`...)
	dst = appendFloat(dst, a.EValue)
	dst = append(dst, `,"qStart":`...)
	dst = strconv.AppendInt(dst, int64(a.QStart), 10)
	dst = append(dst, `,"qEnd":`...)
	dst = strconv.AppendInt(dst, int64(a.QEnd), 10)
	dst = append(dst, `,"sStart":`...)
	dst = strconv.AppendInt(dst, int64(a.SStart), 10)
	dst = append(dst, `,"sEnd":`...)
	dst = strconv.AppendInt(dst, int64(a.SEnd), 10)
	if a.Frame != "" {
		dst = append(dst, `,"frame":"`...)
		dst = append(dst, a.Frame...)
		dst = append(dst, '"')
	}
	if a.NucStart != nil {
		dst = append(dst, `,"nucStart":`...)
		dst = strconv.AppendInt(dst, int64(*a.NucStart), 10)
	}
	if a.NucEnd != nil {
		dst = append(dst, `,"nucEnd":`...)
		dst = strconv.AppendInt(dst, int64(*a.NucEnd), 10)
	}
	return append(dst, '}'), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat formats a finite float64 the way encoding/json does: the
// ES6 number-to-string rule, shortest digits that round-trip, exponent
// form below 1e-6 and from 1e21 with the exponent not zero-padded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// parseAlignment decodes one line written by appendAlignment. ok is
// false for anything else — another key order, an escape, white space,
// an unknown field, a number out of range — and the line then belongs
// to json.Unmarshal; when ok is true the result equals json.Unmarshal's.
func parseAlignment(line []byte) (a AlignmentJSON, ok bool) {
	q, s, ok := scanAlignment(line, &a)
	a.Query, a.Subject = string(q), string(s)
	return a, ok
}

// alignmentKey reads the rank key of a line — query id, subject id and
// E-value — with the ids left in line, so a gather ranks the line
// without allocating. ok is parseAlignment's: the whole line is checked.
func alignmentKey(line []byte) (query, subject []byte, eValue float64, ok bool) {
	var a AlignmentJSON
	query, subject, ok = scanAlignment(line, &a)
	return query, subject, a.EValue, ok
}

// scanAlignment is parseAlignment with the two ids returned as slices
// of line instead of set in a.
func scanAlignment(line []byte, a *AlignmentJSON) (query, subject []byte, ok bool) {
	p := lineParser{b: line}
	query = p.str(`{"query":"`)
	subject = p.str(`,"subject":"`)
	a.Score = p.int(`,"score":`)
	a.BitScore = p.float(`,"bitScore":`)
	a.EValue = p.float(`,"eValue":`)
	a.QStart = p.int(`,"qStart":`)
	a.QEnd = p.int(`,"qEnd":`)
	a.SStart = p.int(`,"sStart":`)
	a.SEnd = p.int(`,"sEnd":`)
	if p.has(`,"frame":`) {
		a.Frame = string(p.str(`"`))
	}
	if p.has(`,"nucStart":`) {
		v := p.int("")
		a.NucStart = &v
	}
	if p.has(`,"nucEnd":`) {
		v := p.int("")
		a.NucEnd = &v
	}
	p.lit("}")
	return query, subject, !p.bad && len(p.b) == 0
}

// lineParser consumes a line from the front. The first mismatch sets
// bad, after which every method is a no-op returning zero.
type lineParser struct {
	b   []byte
	bad bool
}

// has consumes lit when the rest of the line starts with it.
func (p *lineParser) has(lit string) bool {
	if p.bad || len(p.b) < len(lit) || string(p.b[:len(lit)]) != lit {
		return false
	}
	p.b = p.b[len(lit):]
	return true
}

func (p *lineParser) lit(lit string) {
	if !p.has(lit) {
		p.bad = true
	}
}

// str consumes open, which ends with the opening quote, and a string
// of plain characters up to its closing quote, and returns the string's
// bytes.
func (p *lineParser) str(open string) []byte {
	p.lit(open)
	if p.bad {
		return nil
	}
	if i := plainPrefix(p.b); i < len(p.b) && p.b[i] == '"' {
		s := p.b[:i]
		p.b = p.b[i+1:]
		return s
	}
	p.bad = true
	return nil
}

// number consumes key and returns the run of number characters after
// it; the caller judges the run.
func (p *lineParser) number(key string) []byte {
	p.lit(key)
	if p.bad {
		return nil
	}
	n := 0
	for n < len(p.b) {
		if c := p.b[n]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		n++
	}
	tok := p.b[:n]
	p.b = p.b[n:]
	return tok
}

// int consumes key and a JSON integer — digits only — that fits an int.
func (p *lineParser) int(key string) int {
	tok := p.number(key)
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	// JSON allows no leading zero; 19 digits cannot overflow a uint64.
	if len(tok) == 0 || len(tok) > 19 || (tok[0] == '0' && len(tok) > 1) {
		p.bad = true
		return 0
	}
	var v, limit uint64 = 0, math.MaxInt
	for _, c := range tok {
		if c < '0' || c > '9' {
			p.bad = true
			return 0
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		limit++
	}
	if v > limit {
		p.bad = true
		return 0
	}
	if neg {
		v = -v // two's complement: int(v) below is the negative value
	}
	return int(v)
}

// float consumes key and a JSON number that strconv.ParseFloat accepts
// in range, which is how encoding/json reads a float64.
func (p *lineParser) float(key string) float64 {
	tok := p.number(key)
	if !jsonNumber(tok) {
		p.bad = true
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.bad = true
	}
	return f
}

// jsonNumber reports whether b is a number literal of the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — narrower than what
// strconv.ParseFloat takes (no hex, no "Inf", no leading '+' or '.').
func jsonNumber(b []byte) bool {
	digits := func() bool {
		n := 0
		for len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
			b = b[1:]
			n++
		}
		return n > 0
	}
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	if len(b) > 1 && b[0] == '0' && b[1] >= '0' && b[1] <= '9' {
		return false
	}
	if !digits() {
		return false
	}
	if len(b) > 0 && b[0] == '.' {
		b = b[1:]
		if !digits() {
			return false
		}
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		b = b[1:]
		if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		if !digits() {
			return false
		}
	}
	return len(b) == 0
}
