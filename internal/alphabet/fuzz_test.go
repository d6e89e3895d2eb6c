package alphabet

import "testing"

// FuzzEncodeProtein checks the encoder never panics and that accepted
// inputs survive a decode/encode round trip.
func FuzzEncodeProtein(f *testing.F) {
	f.Add("ARNDCQEGHILKMFPSTWYVBZX*")
	f.Add("acdefghiklm")
	f.Add("U-OJ")
	f.Add("")
	f.Add("MK1")
	f.Fuzz(func(t *testing.T, in string) {
		codes, err := EncodeProtein(in)
		if err != nil {
			return
		}
		for _, c := range codes {
			if c >= NumAA {
				t.Fatalf("encoder produced invalid code %d", c)
			}
		}
		again, err := EncodeProtein(DecodeProtein(codes))
		if err != nil {
			t.Fatalf("decode produced unencodable text: %v", err)
		}
		if string(again) != string(codes) {
			t.Fatal("decode/encode not idempotent")
		}
	})
}

// FuzzEncodeDNA checks the DNA encoder and reverse complement.
func FuzzEncodeDNA(f *testing.F) {
	f.Add("ACGTN")
	f.Add("acgu")
	f.Add("RYSWKM")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		codes, err := EncodeDNA(in)
		if err != nil {
			return
		}
		for _, c := range codes {
			if c >= NumNuc {
				t.Fatalf("encoder produced invalid code %d", c)
			}
		}
		rc2 := ReverseComplement(ReverseComplement(codes))
		if string(rc2) != string(codes) {
			t.Fatal("reverse complement not an involution")
		}
	})
}
