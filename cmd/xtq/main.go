// Command xtq evaluates a transform query over an XML document.
//
// Usage:
//
//	xtq -in doc.xml -query 'transform copy $a := doc("d") modify do delete $a//price return $a'
//	xtq -in big.xml -query @query.tq -method sax -out result.xml
//	xtq -in doc.xml -query '...' -user 'for $x in /db/part return $x/pname'
//
// Methods: naive, topdown (default), twopass, copyupdate — in-memory
// evaluation per the paper's §3/§5 algorithms — and sax, the streaming
// twoPassSAX evaluator of §6 that never materializes the document.
//
// With -user, the user query is composed with the transform query (§4):
// it is answered over the transform's virtual output in a single pass —
// the view is never materialized — and the <result> document is printed.
// Composition has its own evaluation algorithm, so -user cannot be
// combined with an explicit -method.
//
// Interrupting the process (Ctrl-C) cancels the evaluation context, so
// even a multi-gigabyte streaming run stops promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"xtq"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xtq:", err)
		os.Exit(1)
	}
}

// methodSAX selects the streaming evaluator; it lives beside the
// in-memory methods in the -method flag only.
const methodSAX = "sax"

// validateMethod rejects an unknown -method before any input document is
// read, naming the valid choices.
func validateMethod(s string) error {
	if s == methodSAX {
		return nil
	}
	if _, err := xtq.ParseMethod(s); err != nil {
		return fmt.Errorf("invalid -method %q (valid: %s, %s, %s)",
			s, strings.Join(xtq.MethodNames(), ", "), xtq.MethodAuto, methodSAX)
	}
	return nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xtq", flag.ContinueOnError)
	in := fs.String("in", "", "input XML document (required)")
	querySrc := fs.String("query", "", "transform query text, or @file to read it from a file (required)")
	method := fs.String("method", "topdown", "evaluation method: naive|topdown|twopass|copyupdate|auto|sax (auto = topdown)")
	user := fs.String("user", "", "user query composed over the transform's virtual view, e.g. 'for $x in /db/part return $x'")
	out := fs.String("out", "", "output file (default: stdout)")
	indent := fs.Bool("indent", false, "pretty-print the result (in-memory methods only)")
	timing := fs.Bool("time", false, "report evaluation time on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *querySrc == "" {
		fs.Usage()
		return fmt.Errorf("-in and -query are required")
	}
	// Fail on a bad method or a bad user query before the transform is
	// compiled or the input document is touched.
	if err := validateMethod(*method); err != nil {
		return err
	}
	if *method == methodSAX && *indent {
		// The streaming evaluator writes events as they arrive; there is
		// no tree to pretty-print, so reject -indent rather than ignore it.
		return fmt.Errorf("-method sax streams its output; -indent does not apply")
	}
	var userQuery *xtq.UserQuery
	if *user != "" {
		// Composition always runs the single-pass Compose Method of §4;
		// an explicit -method cannot take effect, so reject it rather
		// than silently ignore it.
		methodSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "method" {
				methodSet = true
			}
		})
		if methodSet {
			return fmt.Errorf("-user answers the query with the single-pass composition; -method does not apply")
		}
		q, err := xtq.ParseUserQuery(*user)
		if err != nil {
			return fmt.Errorf("invalid -user query: %w", err)
		}
		userQuery = q
	}
	text := *querySrc
	if strings.HasPrefix(text, "@") {
		b, err := os.ReadFile(text[1:])
		if err != nil {
			return err
		}
		text = string(b)
	}

	eng := xtq.NewEngine()
	if *method != methodSAX {
		eng = xtq.NewEngine(xtq.WithMethod(xtq.Method(*method)))
	}
	p, err := eng.Prepare(text)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	defer func() {
		if *timing {
			fmt.Fprintf(os.Stderr, "evaluated in %v\n", time.Since(start))
		}
	}()

	if userQuery != nil {
		view, err := eng.View(text)
		if err != nil {
			return err
		}
		pv, err := view.PrepareQuery(userQuery)
		if err != nil {
			return err
		}
		result, stats, err := pv.Eval(ctx, xtq.FileSource(*in))
		if err != nil {
			return err
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "view: %d nodes visited, %d materialized\n",
				stats.NodesVisited, stats.Materialized)
		}
		if *indent {
			return result.WriteIndented(w)
		}
		return result.WriteXML(w)
	}

	if *method == methodSAX {
		res, err := p.EvalStream(ctx, xtq.FileSource(*in), xtq.ToWriter(w))
		if err != nil {
			return err
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "twoPassSAX: %d elements, stack depth %d, %d qualifier values\n",
				res.Second.ElementsSeen, res.First.MaxStackDepth, res.QualOccurrences)
		}
		return nil
	}

	if !*indent {
		return p.EvalTo(ctx, xtq.FileSource(*in), w)
	}
	result, err := p.Eval(ctx, xtq.FileSource(*in))
	if err != nil {
		return err
	}
	return result.WriteIndented(w)
}
