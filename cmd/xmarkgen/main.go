// Command xmarkgen generates XMark-like auction documents (the
// substitute for the original XMark xmlgen binary), e.g. large inputs
// for streaming evaluation with `xtq -method sax`.
//
// Usage:
//
//	xmarkgen -factor 0.02 -o xmark-0.02.xml
//	xmarkgen -factor 2 -seed 7 -o big.xml
package main

import (
	"flag"
	"fmt"
	"os"

	"xtq"
)

func main() {
	factor := flag.Float64("factor", 0.02, "XMark scaling factor (0.02 ≈ 2 MB, 1 ≈ 100 MB)")
	seed := flag.Int64("seed", 42, "generator seed; equal (factor, seed) yield identical documents")
	out := flag.String("o", "", "output file (required)")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	n, err := xtq.WriteXMarkFile(xtq.XMarkConfig{Factor: *factor, Seed: *seed}, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %.2f MB (factor %g, seed %d)\n", *out, float64(n)/1e6, *factor, *seed)
}
