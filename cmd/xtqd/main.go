// Command xtqd serves a versioned xtq.Store over HTTP — update syntax as
// the write path of a live XML corpus, transform queries and stacked
// views as its read path.
//
//	xtqd -addr :8344
//
//	curl -X PUT  --data-binary @parts.xml localhost:8344/docs/parts
//	curl -X POST --data-binary \
//	  'transform copy $a := doc("parts") modify do delete $a//price return $a' \
//	  localhost:8344/docs/parts/query
//	curl -X POST -H 'If-Match: "1"' --data-binary \
//	  'transform copy $a := doc("parts") modify do delete $a//price return $a' \
//	  localhost:8344/docs/parts/update
//	curl -X PUT --data-binary \
//	  '["transform copy $a := doc(\"parts\") modify do delete $a//price return $a"]' \
//	  localhost:8344/views/public
//	curl localhost:8344/docs/parts/views/public
//
// Reads are lock-free against immutable snapshots; updates commit
// copy-on-write with optimistic versioning (If-Match → 409 Conflict on
// a lost race). Every request runs under -timeout and is cancelled at
// node/SAX-event granularity when the client disconnects.
//
// With -wal DIR the store is durable: every committed write is appended
// to a write-ahead log of logical update records before it is
// published, the corpus survives kill -9 and restarts (the log replays
// through the engine on startup), background checkpoints bound recovery
// time, and GET /docs/{name}?version=N plus GET /docs/{name}/history
// expose time travel over recent versions. -fsync picks the durability
// policy: always (group-committed fsync per write), interval, or none.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"xtq"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request evaluation timeout (0 = none)")
	maxBody := flag.Int64("maxbody", 64<<20, "maximum request body size in bytes")
	maxDepth := flag.Int("maxdepth", 10_000, "maximum element nesting of ingested documents (0 = no limit)")
	walDir := flag.String("wal", "", "write-ahead-log directory; empty serves an in-memory (non-durable) store")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval or none")
	ckptEvery := flag.Int64("checkpoint-bytes", 256<<20, "checkpoint after this many bytes of new log (0 = manual only; needs -wal)")
	follow := flag.String("follow", "", "follower mode: primary base URL to replicate from (serves reads, redirects writes)")
	followDir := flag.String("follow-dir", "", "follower state directory (local checkpoints + replay position; empty = in-memory)")
	catchup := flag.Duration("catchup-wait", 500*time.Millisecond,
		"follower mode: how long a read waits for replication to reach X-Xtq-Min-Version before redirecting to the primary")
	heartbeat := flag.Duration("watch-heartbeat", 15*time.Second,
		"keep-alive comment interval of /watch SSE streams")
	route := flag.String("route", "",
		`router mode: static node map "primary[|follower...][,primary[|follower...]...]" — shards documents across groups by name hash and proxies`)
	slowMS := flag.Int64("slow-query-ms", 0,
		"log evaluating requests (query, update, view reads) slower than this many milliseconds as structured slow-query lines (0 = off)")
	debugAddr := flag.String("debug-addr", "",
		"separate listen address for the net/http/pprof debug endpoints (empty = off)")
	flag.Parse()
	slow := time.Duration(*slowMS) * time.Millisecond

	if *route != "" && *follow != "" {
		fmt.Fprintln(os.Stderr, "xtqd: -route and -follow are mutually exclusive")
		os.Exit(2)
	}

	// Graceful shutdown: stop accepting, drain in-flight requests (their
	// commits finish group-committed fsyncs), then close the store/
	// follower — never the other way around, or a signal races the WAL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler http.Handler
	var closers []func() error
	// A data node has one engine. It runs method=auto, which resolves to
	// topdown and reports the decision in ?explain=1 and
	// xtq_plan_decisions_total; ?method= forces another method for one
	// request, on this same engine and its caches.
	eng := xtq.NewEngine(xtq.WithMethod(xtq.MethodAuto), xtq.WithMaxDepth(*maxDepth))

	switch {
	case *route != "":
		shards, err := parseShards(*route)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xtqd: -route:", err)
			os.Exit(2)
		}
		rt := newRouter(shards)
		// The router gets the same observability surface as a data node:
		// /metrics with role="router" and instrumented proxy routes (one
		// coarse label per proxy family — the patterns are the router's,
		// not the data nodes').
		rmux := http.NewServeMux()
		rmux.HandleFunc("GET /metrics", serveMetrics(func() string { return "router" }))
		rmux.Handle("/", instrument("proxy", slow, rt))
		handler = rmux
		log.Printf("xtqd: routing %d shard(s)", len(shards))

	case *follow != "":
		fol, err := xtq.Follow(*follow, eng,
			xtq.WithFollowDir(*followDir),
			xtq.WithFollowLogf(log.Printf),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xtqd: starting follower:", err)
			os.Exit(1)
		}
		closers = append(closers, fol.Close)
		handler = buildServer(fol.Store(), fol, *timeout, *maxBody, *catchup, *heartbeat, slow)
		log.Printf("xtqd: following %s (%d docs replicated)", *follow, fol.Store().Len())

	default:
		var st *xtq.Store
		if *walDir != "" {
			policy, err := xtq.ParseFsyncPolicy(*fsync)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xtqd:", err)
				os.Exit(2)
			}
			st, err = xtq.OpenStore(*walDir, eng,
				xtq.WithFsync(policy),
				xtq.WithCheckpointEvery(*ckptEvery),
			)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xtqd: opening store:", err)
				os.Exit(1)
			}
			closers = append(closers, st.Close)
			log.Printf("xtqd: durable store at %s (fsync=%s, %d docs recovered; replication feed on /wal)",
				*walDir, policy, st.Len())
		} else {
			st = xtq.NewStore(eng)
		}
		handler = buildServer(st, nil, *timeout, *maxBody, 0, *heartbeat, slow)
		log.Printf("xtqd: serving (timeout=%s)", *timeout)
	}

	if *debugAddr != "" {
		// pprof rides its own listener so profiling endpoints are never
		// exposed on the service address.
		dsrv := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("xtqd: pprof debug listener on %s", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("xtqd: debug listener: %v", err)
			}
		}()
		closers = append(closers, dsrv.Close)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	log.Printf("xtqd: listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("xtqd: %v", err)
	}
	<-shutdownDone // every in-flight request has finished or timed out
	for _, close := range closers {
		if err := close(); err != nil {
			log.Printf("xtqd: closing: %v", err)
		}
	}
	log.Print("xtqd: shut down")
}
