package alphabet

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestProteinCodesAreSequential(t *testing.T) {
	if Ala != 0 || Val != 19 || Xaa != 22 || Stp != 23 {
		t.Fatalf("unexpected code layout: Ala=%d Val=%d Xaa=%d Stp=%d", Ala, Val, Xaa, Stp)
	}
	if NumAA != len(proteinLetters) {
		t.Fatalf("NumAA=%d but %d letters", NumAA, len(proteinLetters))
	}
}

func TestEncodeDecodeProteinRoundTrip(t *testing.T) {
	const s = "ARNDCQEGHILKMFPSTWYVBZX*"
	codes, err := EncodeProtein(s)
	if err != nil {
		t.Fatalf("EncodeProtein: %v", err)
	}
	for i, c := range codes {
		if c != byte(i) {
			t.Errorf("letter %c encodes to %d, want %d", s[i], c, i)
		}
	}
	if got := DecodeProtein(codes); got != s {
		t.Errorf("round trip = %q, want %q", got, s)
	}
}

func TestEncodeProteinLowerCase(t *testing.T) {
	upper, err := EncodeProtein("ACDEFGHIKLMNPQRSTVWY")
	if err != nil {
		t.Fatal(err)
	}
	lower, err := EncodeProtein("acdefghiklmnpqrstvwy")
	if err != nil {
		t.Fatal(err)
	}
	if string(upper) != string(lower) {
		t.Error("lower-case encoding differs from upper-case")
	}
}

func TestEncodeProteinAliases(t *testing.T) {
	cases := []struct {
		in   string
		want byte
	}{
		{"U", Cys},
		{"O", Lys},
		{"J", Xaa},
		{"-", Xaa},
	}
	for _, c := range cases {
		got, err := EncodeProtein(c.in)
		if err != nil {
			t.Fatalf("EncodeProtein(%q): %v", c.in, err)
		}
		if got[0] != c.want {
			t.Errorf("EncodeProtein(%q) = %d, want %d", c.in, got[0], c.want)
		}
	}
}

func TestEncodeProteinInvalid(t *testing.T) {
	for _, s := range []string{"AB1", "A B", "#", "A\nR"} {
		if _, err := EncodeProtein(s); err == nil {
			t.Errorf("EncodeProtein(%q) succeeded, want error", s)
		} else if _, ok := err.(*InvalidLetterError); !ok {
			t.Errorf("EncodeProtein(%q) error type %T, want *InvalidLetterError", s, err)
		}
	}
}

func TestInvalidLetterErrorMessage(t *testing.T) {
	_, err := EncodeProtein("AR#D")
	e, ok := err.(*InvalidLetterError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if e.Pos != 2 || e.Letter != '#' {
		t.Errorf("error = %+v, want Pos=2 Letter='#'", e)
	}
	if !strings.Contains(e.Error(), "protein") {
		t.Errorf("message %q should mention kind", e.Error())
	}
}

func TestMustEncodeProteinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEncodeProtein did not panic on invalid input")
		}
	}()
	MustEncodeProtein("!!")
}

func TestEncodeDecodeDNARoundTrip(t *testing.T) {
	const s = "ACGTN"
	codes, err := EncodeDNA(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		if c != byte(i) {
			t.Errorf("letter %c encodes to %d, want %d", s[i], c, i)
		}
	}
	if got := DecodeDNA(codes); got != s {
		t.Errorf("round trip = %q, want %q", got, s)
	}
}

func TestEncodeDNAAmbiguityCollapsesToN(t *testing.T) {
	codes, err := EncodeDNA("RYSWKMBDHV")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		if c != NucN {
			t.Errorf("position %d: code %d, want NucN", i, c)
		}
	}
}

func TestEncodeDNAUracil(t *testing.T) {
	codes, err := EncodeDNA("AUGC")
	if err != nil {
		t.Fatal(err)
	}
	if codes[1] != NucT {
		t.Errorf("U encodes to %d, want NucT", codes[1])
	}
}

func TestEncodeDNAInvalid(t *testing.T) {
	if _, err := EncodeDNA("ACGX"); err == nil {
		t.Error("EncodeDNA accepted X (protein-only letter)")
	}
}

func TestComplementPairs(t *testing.T) {
	pairs := map[byte]byte{NucA: NucT, NucC: NucG, NucG: NucC, NucT: NucA, NucN: NucN}
	for in, want := range pairs {
		if got := Complement(in); got != want {
			t.Errorf("Complement(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	in := MustEncodeDNA("AACGTT")
	got := DecodeDNA(ReverseComplement(in))
	if got != "AACGTT" { // palindrome
		t.Errorf("ReverseComplement palindrome = %q", got)
	}
	in2 := MustEncodeDNA("AAACGN")
	if got := DecodeDNA(ReverseComplement(in2)); got != "NCGTTT" {
		t.Errorf("ReverseComplement = %q, want NCGTTT", got)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		dna := make([]byte, len(raw))
		for i, b := range raw {
			dna[i] = b % NumNuc
		}
		back := ReverseComplement(ReverseComplement(dna))
		return string(back) == string(dna)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidityPredicates(t *testing.T) {
	if !ValidProtein(0) || !ValidProtein(NumAA-1) || ValidProtein(NumAA) {
		t.Error("ValidProtein boundary wrong")
	}
	if !IsStandardAA(19) || IsStandardAA(20) {
		t.Error("IsStandardAA boundary wrong")
	}
	if !ValidNucleotide(NucN) || ValidNucleotide(NumNuc) {
		t.Error("ValidNucleotide boundary wrong")
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	if ProteinLetter(200) != '?' {
		t.Error("ProteinLetter out of range should be '?'")
	}
	if NucLetter(200) != '?' {
		t.Error("NucLetter out of range should be '?'")
	}
}

func TestEncodeProteinPropertyRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		codes := make([]byte, len(raw))
		for i, b := range raw {
			codes[i] = b % NumAA
		}
		back, err := EncodeProtein(DecodeProtein(codes))
		if err != nil {
			return false
		}
		return string(back) == string(codes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckProteinMatchesEncodeProtein(t *testing.T) {
	for _, in := range []string{"", "ARNDCQEGHILKMFPSTWYVBZX*", "acdefg", "U-OJ", "MK1", "1", "MKV\n"} {
		_, want := EncodeProtein(in)
		got := CheckProtein(in)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("CheckProtein(%q) = %v, EncodeProtein says %v", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = CheckProtein("MKVLITGASGFIGSHLVDRLMSKGYEVIGLDNFNDYYDVRLKEARLELL") }); n != 0 {
		t.Errorf("CheckProtein allocated %g times on a valid sequence", n)
	}
}
