// Command vectorh-serve exposes an in-process VectorH cluster over TCP: the
// serving layer that turns the engine library into a multi-session service.
// It preloads TPC-H data (tpch.Demo, as cmd/vectorh-sql does) and speaks the
// length-prefixed JSON frame protocol of internal/server.
//
//	$ vectorh-serve -addr 127.0.0.1:15432 -sf 0.01 -max-concurrent 8
//	listening on 127.0.0.1:15432 (sf=0.01, 3 nodes, max 8 concurrent queries)
//
// Connect with the bundled client:
//
//	$ vectorh-sql -connect 127.0.0.1:15432
//	vectorh> select count(*) from lineitem;
//
// SIGINT/SIGTERM shut the server down cleanly: in-flight queries are
// cancelled, sessions drained, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vectorh"
	"vectorh/internal/server"
	"vectorh/internal/tpch"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:15432", "listen address")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to preload")
	nodes := flag.Int("nodes", 3, "simulated cluster size")
	partitions := flag.Int("partitions", 6, "table partition count")
	threads := flag.Int("threads", 2, "exchange threads per node")
	maxConcurrent := flag.Int("max-concurrent", 4, "admission control: max concurrently executing queries")
	queueWait := flag.Duration("queue-wait", 10*time.Second, "admission control: max queue wait before rejecting")
	metricsAddr := flag.String("metrics-addr", "", "optional HTTP listen address serving Prometheus metrics at /metrics")
	slowLog := flag.String("slow-log", "", "path of the structured slow-query log (JSON lines; - for stderr)")
	slowThreshold := flag.Duration("slow-threshold", 500*time.Millisecond, "queries at or above this duration are slow-logged")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "loading TPC-H sf=%g onto %d nodes...\n", *sf, *nodes)
	start := time.Now()
	e, _, err := tpch.Demo(*sf, *nodes, *threads, *partitions)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded in %v\n", time.Since(start).Round(time.Millisecond))

	opt := server.Options{MaxConcurrent: *maxConcurrent, QueueWait: *queueWait}
	var slowFile *os.File
	if *slowLog == "-" {
		opt.SlowQueryLog, opt.SlowQueryThreshold = os.Stderr, *slowThreshold
	} else if *slowLog != "" {
		slowFile, err = os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		opt.SlowQueryLog, opt.SlowQueryThreshold = slowFile, *slowThreshold
	}
	srv := server.New(&vectorh.DB{Engine: e}, opt)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("listening on %s (sf=%g, %d nodes, max %d concurrent queries)\n",
		bound, *sf, *nodes, *maxConcurrent)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			text, err := srv.Metrics()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprint(w, text)
		})
		metricsSrv = &http.Server{Handler: mux}
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
		go metricsSrv.Serve(ln) // metrics sidecar; lifetime is the process
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down...")
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "served %d sessions, %d queries completed, %d cancelled, %d rows (%d slow-logged)\n",
		st.TotalSessions, st.CompletedQueries, st.CancelledQueries, st.RowsServed, st.SlowQueries)
	if slowFile != nil {
		slowFile.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
