// Command cssv-serve runs the C String Static Verifier as a long-lived
// daemon with a small HTTP batch API. One warm process (parsed libc
// header) and one on-disk analysis cache are shared across every
// request, so re-verifying a slowly changing code base pays the fixpoint
// cost only for procedures that actually changed.
//
// Daemon:
//
//	cssv-serve -addr 127.0.0.1:7996 -cache-dir /path/to/cache
//
// Client (for scripts and CI; retries the connection while the daemon
// starts, prints the report, and exits with the CLI's status code):
//
//	cssv-serve -submit file.c -addr 127.0.0.1:7996 [-cascade] [-certify] [-stats] [-q]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7996", "listen (or, with -submit, connect) address")
		cacheDir    = flag.String("cache-dir", "", "directory for the shared on-disk analysis cache (default: no cache)")
		cacheVerify = flag.Bool("cache-verify", false, "re-verify stored certificates before trusting exact cache hits")
		jobs        = flag.Int("j", 0, "procedures analyzed in parallel per request (0 = all CPUs)")
		maxBody     = flag.Int64("max-request-bytes", 0, "largest accepted request body in bytes (0 = 64 MiB default, negative = unbounded); larger bodies get 413")
		grace       = flag.Duration("shutdown-grace", 5*time.Minute, "on SIGINT/SIGTERM, how long in-flight requests may finish before being cut off")
		submit      = flag.String("submit", "", "client mode: analyze this C file via a running daemon instead of serving")
		wait        = flag.Duration("connect-timeout", 10*time.Second, "client mode: how long to retry connecting to the daemon")

		domain    = flag.String("domain", "", "client mode: numeric domain (default: daemon default, polyhedra)")
		pointer   = flag.String("pointer", "", "client mode: pointer analysis (default inclusion)")
		target    = flag.String("target", "", "client mode: object-layout data model (default paper32)")
		contracts = flag.String("contracts", "", "client mode: contract mode (default manual)")
		cascade   = flag.Bool("cascade", false, "client mode: discharge checks in tiers")
		certify   = flag.Bool("certify", false, "client mode: verify invariant certificates")
		stats     = flag.Bool("stats", false, "client mode: print per-procedure statistics")
		quiet     = flag.Bool("q", false, "client mode: suppress warnings")
	)
	flag.Parse()

	if *submit != "" {
		os.Exit(clientMain(*addr, *submit, *wait, serve.RequestConfig{
			Domain:    *domain,
			Pointer:   *pointer,
			Target:    *target,
			Contracts: *contracts,
			Cascade:   *cascade,
			Certify:   *certify,
			Stats:     *stats,
			Quiet:     *quiet,
		}))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: cssv-serve [flags]   or   cssv-serve -submit file.c [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	srv := &serve.Server{
		CacheDir:        *cacheDir,
		CacheVerify:     *cacheVerify,
		Workers:         *jobs,
		MaxRequestBytes: *maxBody,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssv-serve:", err)
		os.Exit(2)
	}
	ctx, stop := serve.NotifyContext(context.Background())
	defer stop()
	fmt.Fprintf(os.Stderr, "cssv-serve: listening on %s (cache-dir=%q)\n", *addr, *cacheDir)
	err = serve.RunServer(ctx, ln, srv, *grace)
	switch {
	case err == nil:
		fmt.Fprintln(os.Stderr, "cssv-serve: shut down cleanly")
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "cssv-serve: shutdown grace expired with requests in flight")
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "cssv-serve:", err)
		os.Exit(2)
	}
}

// clientMain submits one file to a running daemon and mirrors the cssv
// command's stdout and exit status. Connection errors are retried until
// the deadline so CI can start the daemon and the client back to back.
func clientMain(addr, path string, wait time.Duration, cfg serve.RequestConfig) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssv-serve:", err)
		return 2
	}
	body, err := json.Marshal(serve.Request{Filename: path, Source: string(src), Config: cfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssv-serve:", err)
		return 2
	}
	url := "http://" + addr + "/v1/analyze"
	deadline := time.Now().Add(wait)
	var resp *http.Response
	for {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "cssv-serve: daemon unreachable:", err)
			return 2
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "cssv-serve: daemon returned %s\n", resp.Status)
		return 2
	}
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fmt.Fprintln(os.Stderr, "cssv-serve:", err)
		return 2
	}
	if out.Error != "" {
		fmt.Fprintln(os.Stderr, "cssv:", out.Error)
		return out.ExitCode
	}
	os.Stdout.WriteString(out.Output)
	return out.ExitCode
}
