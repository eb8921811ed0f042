// Command campaignd is a thin HTTP front over the campaign runner and
// the content-addressed result store (internal/store). POST a
// CampaignSpec to /run and the daemon compiles it, attaches
// fingerprints, and runs it on an in-process core.Runner whose cache is
// the store — the same execution path as cmd/campaign -store. Cache
// hits replay byte-identically, misses simulate over a GOMAXPROCS
// worker pool and are stored back, and every result streams into one
// well-formed results file. Submitting an overlapping spec later
// simulates only the complement.
//
// Usage:
//
//	campaignd [-addr 127.0.0.1:8383] [-store out/store] [-out-dir out/campaignd]
//	campaignd [-addr-file PATH] [-prune-bytes B]
//	campaignd -submit spec.json [-addr HOST:PORT]   (client: POST and print the summary)
//
// Endpoints: POST /run (synchronous; returns a runSummary), GET /status
// (current campaign snapshot incl. cache-hit ratio), GET /store/stats,
// GET /metrics, pprof under /debug/pprof/.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"uavres/internal/spec"
	"uavres/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8383", "listen address (daemon) or daemon address (-submit); port 0 picks a free port — see -addr-file")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (lets scripts use -addr with port 0)")
		storeDir   = flag.String("store", "out/store", "content-addressed result store directory")
		outDir     = flag.String("out-dir", "out/campaignd", "directory for merged per-run results files")
		pruneBytes = flag.Int64("prune-bytes", 0, "if > 0, prune the store oldest-first down to this byte budget at startup")
		submit     = flag.String("submit", "", "client mode: POST this CampaignSpec file to the daemon at -addr, print the summary, exit")
		quiet      = flag.Bool("q", false, "suppress per-run progress output")
	)
	flag.Parse()

	if *submit != "" {
		return submitRun(*addr, *submit)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: -out-dir: %v\n", err)
		return 1
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	defer st.Close()
	if *pruneBytes > 0 {
		removed, err := st.Prune(*pruneBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaignd: prune:", err)
			return 1
		}
		if removed > 0 && !*quiet {
			fmt.Printf("campaignd: pruned %d object(s) to fit %d bytes\n", removed, *pruneBytes)
		}
	}

	// The wall clock enters here and nowhere deeper, mirroring
	// cmd/campaign: everything below sees an injected obs.Clock.
	startAt := time.Now()
	clock := func() float64 { return time.Since(startAt).Seconds() }

	srvr := newServer(st, *outDir, *quiet, clock)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: -addr: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "campaignd: -addr-file: %v\n", err)
			return 1
		}
	}
	stats := st.Stats()
	fmt.Printf("campaignd: serving on http://%s (store %s: %d objects, %d bytes)\n",
		bound, *storeDir, stats.Objects, stats.Bytes)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	httpSrv := &http.Server{Handler: srvr.mux()}
	go func() {
		<-ctx.Done()
		_ = httpSrv.Close()
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	return 0
}

// submitRun is the bundled client: it validates the spec locally (fast
// failure, same schema the daemon enforces), POSTs it to /run, and
// relays the summary JSON to stdout.
func submitRun(addr, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	if _, err := spec.Parse(data); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	resp, err := http.Post("http://"+addr+"/run", "application/json", bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	os.Stdout.Write(body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "campaignd: daemon returned %s\n", resp.Status)
		return 1
	}
	return 0
}
