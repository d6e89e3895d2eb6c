// Package alphabet defines the protein and nucleotide alphabets used
// throughout seedblast, together with compact byte encodings.
//
// Protein residues are encoded in the NCBIstdaa-like order
// ARNDCQEGHILKMFPSTWYVBZX* (20 standard amino acids followed by the
// ambiguity codes B and Z, the wildcard X and the stop symbol '*').
// Nucleotides are encoded as A=0 C=1 G=2 T=3 with N=4 as wildcard.
// All packages operate on encoded []byte sequences; translation to and
// from ASCII letters happens only at the I/O boundary.
package alphabet

import "fmt"

// Protein residue codes. The first NumStandardAA codes are the 20
// standard amino acids; the remaining codes are ambiguity/wildcard
// symbols that substitution matrices still score.
const (
	Ala byte = iota // A
	Arg             // R
	Asn             // N
	Asp             // D
	Cys             // C
	Gln             // Q
	Glu             // E
	Gly             // G
	His             // H
	Ile             // I
	Leu             // L
	Lys             // K
	Met             // M
	Phe             // F
	Pro             // P
	Ser             // S
	Thr             // T
	Trp             // W
	Tyr             // Y
	Val             // V
	Asx             // B = N or D
	Glx             // Z = Q or E
	Xaa             // X = any
	Stp             // * = translation stop
)

// NumStandardAA is the number of unambiguous amino acids.
const NumStandardAA = 20

// NumAA is the total number of protein codes (including B, Z, X, *).
const NumAA = 24

// proteinLetters lists the ASCII letter for each protein code, in code order.
const proteinLetters = "ARNDCQEGHILKMFPSTWYVBZX*"

// Nucleotide codes.
const (
	NucA byte = iota
	NucC
	NucG
	NucT
	NucN // wildcard / unknown
)

// NumNuc is the total number of nucleotide codes.
const NumNuc = 5

// nucLetters lists the ASCII letter for each nucleotide code.
const nucLetters = "ACGTN"

// aaCode maps ASCII bytes to protein codes; 0xFF marks invalid letters.
var aaCode [256]byte

// nucCode maps ASCII bytes to nucleotide codes; 0xFF marks invalid letters.
var nucCode [256]byte

func init() {
	for i := range aaCode {
		aaCode[i] = 0xFF
		nucCode[i] = 0xFF
	}
	for code, letter := range []byte(proteinLetters) {
		aaCode[letter] = byte(code)
		aaCode[letter|0x20] = byte(code) // lower case
	}
	// Accepted aliases: U (selenocysteine) → C, O (pyrrolysine) → K,
	// J (I/L ambiguity) → X, '-' (gap in alignments read back) → X.
	for _, alias := range []struct{ letter, code byte }{
		{'U', Cys}, {'u', Cys},
		{'O', Lys}, {'o', Lys},
		{'J', Xaa}, {'j', Xaa},
		{'-', Xaa},
	} {
		aaCode[alias.letter] = alias.code
	}
	for code, letter := range []byte(nucLetters) {
		nucCode[letter] = byte(code)
		nucCode[letter|0x20] = byte(code)
	}
	// IUPAC ambiguity nucleotides collapse to N; U (RNA) reads as T.
	for _, b := range []byte("RYSWKMBDHVryswkmbdhv") {
		nucCode[b] = NucN
	}
	nucCode['U'] = NucT
	nucCode['u'] = NucT
}

// InvalidLetterError reports a letter that does not belong to the alphabet.
type InvalidLetterError struct {
	Letter byte
	Pos    int
	Kind   string // "protein" or "nucleotide"
}

func (e *InvalidLetterError) Error() string {
	return fmt.Sprintf("alphabet: invalid %s letter %q at position %d", e.Kind, e.Letter, e.Pos)
}

// EncodeProtein converts an ASCII amino-acid string into protein codes.
// Unknown letters yield an *InvalidLetterError.
func EncodeProtein(s string) ([]byte, error) {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := aaCode[s[i]]
		if c == 0xFF {
			return nil, &InvalidLetterError{Letter: s[i], Pos: i, Kind: "protein"}
		}
		out[i] = c
	}
	return out, nil
}

// CheckProtein returns the error EncodeProtein would return for s,
// without encoding it.
func CheckProtein(s string) error {
	for i := 0; i < len(s); i++ {
		if aaCode[s[i]] == 0xFF {
			return &InvalidLetterError{Letter: s[i], Pos: i, Kind: "protein"}
		}
	}
	return nil
}

// MustEncodeProtein is EncodeProtein for known-good literals; it panics on
// invalid input and is intended for tests and embedded tables.
func MustEncodeProtein(s string) []byte {
	out, err := EncodeProtein(s)
	if err != nil {
		panic(err)
	}
	return out
}

// DecodeProtein converts protein codes back to an ASCII string.
// Codes out of range decode as '?'.
func DecodeProtein(codes []byte) string {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = ProteinLetter(c)
	}
	return string(out)
}

// ProteinLetter returns the ASCII letter for a single protein code.
func ProteinLetter(code byte) byte {
	if int(code) >= len(proteinLetters) {
		return '?'
	}
	return proteinLetters[code]
}

// IsStandardAA reports whether code is one of the 20 unambiguous amino acids.
func IsStandardAA(code byte) bool { return code < NumStandardAA }

// EncodeDNA converts an ASCII nucleotide string into nucleotide codes.
// IUPAC ambiguity letters collapse to N; unknown letters yield an error.
func EncodeDNA(s string) ([]byte, error) {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := nucCode[s[i]]
		if c == 0xFF {
			return nil, &InvalidLetterError{Letter: s[i], Pos: i, Kind: "nucleotide"}
		}
		out[i] = c
	}
	return out, nil
}

// MustEncodeDNA is EncodeDNA for known-good literals; it panics on invalid
// input and is intended for tests.
func MustEncodeDNA(s string) []byte {
	out, err := EncodeDNA(s)
	if err != nil {
		panic(err)
	}
	return out
}

// DecodeDNA converts nucleotide codes back to an ASCII string.
// Codes out of range decode as '?'.
func DecodeDNA(codes []byte) string {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = NucLetter(c)
	}
	return string(out)
}

// NucLetter returns the ASCII letter for a single nucleotide code.
func NucLetter(code byte) byte {
	if int(code) >= len(nucLetters) {
		return '?'
	}
	return nucLetters[code]
}

// Complement returns the Watson-Crick complement of a nucleotide code.
// N complements to N.
func Complement(code byte) byte {
	switch code {
	case NucA:
		return NucT
	case NucC:
		return NucG
	case NucG:
		return NucC
	case NucT:
		return NucA
	default:
		return NucN
	}
}

// ReverseComplement returns the reverse complement of an encoded DNA
// sequence as a new slice.
func ReverseComplement(dna []byte) []byte {
	out := make([]byte, len(dna))
	for i, c := range dna {
		out[len(dna)-1-i] = Complement(c)
	}
	return out
}
