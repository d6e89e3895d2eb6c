// Package dirty is seedlint's command-level fixture. leak is one
// mmapclose finding at a stable position; dump ranges a map into a
// writer, which no analyzer flags. Direct mode and go vet mode must
// report exactly the same finding here (TestSeedlintVetMatchesDirect).
package dirty

import (
	"fmt"
	"io"

	"seedblast/internal/index"
)

var totals = map[string]int{}

func leak(path string) {
	_, _ = index.Open(path)
}

func dump(w io.Writer) {
	for k := range totals {
		fmt.Fprintln(w, k)
	}
}
