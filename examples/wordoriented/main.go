// Word-oriented memories: march tests address words, not bits, so faults
// coupling two bits inside one word are only sensitized when the data
// background gives the two bits different values. This example reproduces
// the classic result — a solid background misses half the intra-word
// couplings; the standard log2(w)+1 background set restores full coverage —
// and demonstrates this repository's finding that transition-write disturb
// couplings are not testable by word-wide writes at all.
package main

import (
	"fmt"
	"log"

	"marchgen/internal/march"
	"marchgen/internal/word"
)

func main() {
	const width = 4
	cfg := word.Config{Width: width}

	bgs, err := word.Backgrounds(width)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standard backgrounds for %d-bit words:", width)
	for _, bg := range bgs {
		fmt.Printf("  %s", bg)
	}
	fmt.Println()

	all := word.IntraWordFaults(width)
	testable := word.TestableIntraWordFaults(width)
	fmt.Printf("\nintra-word static faults: %d total, %d march-testable\n", len(all), len(testable))
	fmt.Printf("(the %d transition-write disturb couplings are masked by the word\n", len(all)-len(testable))
	fmt.Println(" write itself and need bit-write enables — see EXPERIMENTS.md)")

	solid := []word.Background{word.Solid(width)}
	for _, m := range []march.Test{march.MATSPlus, march.MarchCMinus, march.MarchSS} {
		dSolid, err := word.Coverage(m, testable, solid, cfg)
		if err != nil {
			log.Fatal(err)
		}
		dAll, err := word.Coverage(m, testable, bgs, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-9s (%4s): solid background %d/%d, standard set %d/%d",
			m.Name, m.Complexity(), dSolid, len(testable), dAll, len(testable))
	}
	fmt.Println()
}
