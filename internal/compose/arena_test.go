package compose

import (
	"fmt"
	"strings"
	"testing"
)

// deepChain is <db><c><v>0</v><c><v>1</v>…</c></c></db>: depth nested c
// elements, each with a value child ahead of the next c.
func deepChain(depth int) string {
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "<c><v>%d</v>", i)
	}
	b.WriteString(strings.Repeat("</c>", depth))
	b.WriteString("</db>")
	return b.String()
}

// TestArenaGrowthMatchesSequential walks a chain several times deeper than
// the state arenas' first block under two live '//' layers, so the arenas
// grow while vnodes holding slices of the old blocks are still on the
// enumeration path — and some of those vnodes are kept as frontier
// entries. Layer 1's qualifiers navigate the constant element layer 0
// inserts and re-enter the walk below every c (renaming the c elements
// between depths 61 and 119); the user queries' qualifiers re-enter it
// once more. Every answer must equal sequential materialization.
func TestArenaGrowthMatchesSequential(t *testing.T) {
	const depth = 5 * arenaDepth
	doc := deepChain(depth)
	stack := []string{
		`transform copy $a := doc("d") modify do insert <n><v>7</v></n> into $a//c[v > 60] return $a`,
		`transform copy $a := doc("d") modify do rename $a//c[n/v = "7" and .//c[v = "120"]] as d return $a`,
	}
	for _, user := range []string{
		`for $x in /db//d[.//v = "150"] return $x/v`,
		`for $x in /db//c return $x/v`,
		`for $x in /db//d[not(c)]/n return $x`,
		`for $x in /db//d/d/d[n] return <r>{$x/v}{$x/n/v}</r>`,
		`for $x in /db/c return $x`,
	} {
		if got, _ := checkStack(t, doc, user, stack...); len(got.Root().Children) == 0 {
			t.Errorf("%s: empty answer proves nothing", user)
		}
	}
}
