// Package serve implements the cssv-serve batch API: a long-running
// daemon that keeps one warm process (parsed libc header) and one on-disk
// analysis cache across many analysis requests, so repeated verification
// of a slowly changing code base pays the fixpoint cost only for
// procedures that actually changed.
//
// The HTTP surface is deliberately small:
//
//	POST /v1/analyze  {filename, source, config}  -> {output, exit_code, ...}
//	POST /v1/batch    {requests: [...]}           -> {results: [...]}
//	GET  /v1/stats                                -> aggregate counters
//	GET  /healthz                                 -> 200 "ok"
//
// The response output is produced by the same Render path as the cssv
// command, so a daemon answer is byte-identical to a one-shot CLI run of
// the same file with the same flags. The daemon — not the client — owns
// the cache directory and worker count: requests cannot redirect the
// cache or change the process's parallelism.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro"
)

// RequestConfig is the client-settable subset of cssv.Config plus the
// rendering switches. Cache placement, verification policy, and worker
// count are absent on purpose: they belong to the server.
type RequestConfig struct {
	Procs     []string `json:"procs,omitempty"`
	Domain    string   `json:"domain,omitempty"`
	Pointer   string   `json:"pointer,omitempty"`
	Target    string   `json:"target,omitempty"`
	Contracts string   `json:"contracts,omitempty"`
	Cascade   bool     `json:"cascade,omitempty"`
	Certify   bool     `json:"certify,omitempty"`

	Stats         bool `json:"stats,omitempty"`
	DumpIP        bool `json:"dump_ip,omitempty"`
	DumpReducedIP bool `json:"dump_reduced_ip,omitempty"`
	Quiet         bool `json:"quiet,omitempty"`
}

// Request is one analysis job: a named C source text plus configuration.
type Request struct {
	Filename string        `json:"filename"`
	Source   string        `json:"source"`
	Config   RequestConfig `json:"config"`
}

// Response mirrors what a CLI invocation would have produced: the full
// rendered report and the exit status the cssv command would have used
// (0 clean, 1 messages reported, 2 analysis failure or failed
// certificate). Error is set — and the other fields zero — only when the
// analysis itself could not run.
type Response struct {
	Output     string `json:"output"`
	ExitCode   int    `json:"exit_code"`
	Messages   int    `json:"messages"`
	CertFailed int    `json:"cert_failed"`
	Error      string `json:"error,omitempty"`
}

// BatchRequest runs several jobs in one round trip; results are returned
// in request order.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse carries one Response per request, in order.
type BatchResponse struct {
	Results []Response `json:"results"`
}

// Stats aggregates the cache-relevant run counters across every request
// the daemon has served, plus the request count itself.
type Stats struct {
	Requests           int `json:"requests"`
	Failures           int `json:"failures"`
	CacheHits          int `json:"cache_hits"`
	CacheRevalidated   int `json:"cache_revalidated"`
	CacheMisses        int `json:"cache_misses"`
	CacheStores        int `json:"cache_stores"`
	CacheBadEntries    int `json:"cache_bad_entries"`
	CacheCertRejected  int `json:"cache_cert_rejected"`
	FixpointIterations int `json:"fixpoint_iterations"`
}

// Server handles the batch API. The zero value serves with no on-disk
// cache and default parallelism.
type Server struct {
	// CacheDir is the analysis cache shared by every request (empty =
	// no cache — the process is still warm across requests).
	CacheDir string
	// CacheVerify re-verifies stored certificates on exact hits.
	CacheVerify bool
	// Workers is the per-request parallelism (0 = all CPUs).
	Workers int
	// MaxRequestBytes bounds each request body; larger bodies are
	// rejected with 413 Request Entity Too Large before the decoder
	// buffers them (0 = the 64 MiB default, negative = unbounded).
	MaxRequestBytes int64

	mu    sync.Mutex
	stats Stats
}

// DefaultMaxRequestBytes is the request-body bound applied when
// Server.MaxRequestBytes is zero: generous for source files, small
// enough that a misbehaving client cannot exhaust daemon memory.
const DefaultMaxRequestBytes = 64 << 20

func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	limit := s.MaxRequestBytes
	if limit == 0 {
		limit = DefaultMaxRequestBytes
	}
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
}

// decodeError maps a body-decode failure to its HTTP status: 413 when
// the body tripped the MaxBytesReader bound, 400 otherwise.
func decodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
}

// decodeRequest decodes a request body into v. Unknown fields are
// rejected, so a misspelled or retired config key gets a 400 instead of
// silently running a different configuration.
func decodeRequest(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.limitBody(w, r)
		var req Request
		if err := decodeRequest(r, &req); err != nil {
			decodeError(w, err)
			return
		}
		writeJSON(w, s.analyze(req))
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.limitBody(w, r)
		var req BatchRequest
		if err := decodeRequest(r, &req); err != nil {
			decodeError(w, err)
			return
		}
		resp := BatchResponse{Results: make([]Response, len(req.Requests))}
		for i, one := range req.Requests {
			resp.Results[i] = s.analyze(one)
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		snap := s.stats
		s.mu.Unlock()
		writeJSON(w, snap)
	})
	return mux
}

// Snapshot returns the aggregate counters served at /v1/stats.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Server) analyze(req Request) Response {
	c := req.Config
	target := c.Target
	if target == "" {
		target = "paper32"
	}
	cfg := cssv.Config{
		Procedures:  c.Procs,
		Domain:      c.Domain,
		Pointer:     c.Pointer,
		Target:      target,
		Contracts:   c.Contracts,
		Cascade:     c.Cascade || c.DumpReducedIP,
		Certify:     c.Certify,
		Workers:     s.Workers,
		CacheDir:    s.CacheDir,
		CacheVerify: s.CacheVerify,
	}
	rep, err := cssv.Analyze(req.Filename, req.Source, cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Requests++
	if err != nil {
		s.stats.Failures++
		return Response{Error: err.Error(), ExitCode: 2}
	}
	s.stats.CacheHits += rep.Stats.CacheHits
	s.stats.CacheRevalidated += rep.Stats.CacheRevalidated
	s.stats.CacheMisses += rep.Stats.CacheMisses
	s.stats.CacheStores += rep.Stats.CacheStores
	s.stats.CacheBadEntries += rep.Stats.CacheBadEntries
	s.stats.CacheCertRejected += rep.Stats.CacheCertRejected
	s.stats.FixpointIterations += rep.Stats.FixpointIterations
	var buf bytes.Buffer
	messages, certFailed := cssv.Render(&buf, rep, cssv.RenderOptions{
		Stats:         c.Stats,
		DumpIP:        c.DumpIP,
		DumpReducedIP: c.DumpReducedIP,
		Quiet:         c.Quiet,
		Target:        target,
	})
	code := 0
	switch {
	case certFailed > 0:
		code = 2
	case messages > 0:
		code = 1
	}
	return Response{
		Output:     buf.String(),
		ExitCode:   code,
		Messages:   messages,
		CertFailed: certFailed,
	}
}

// RunServer serves s on ln until ctx is cancelled (typically by SIGINT
// or SIGTERM), then drains: in-flight requests run to completion —
// bounded by grace — before the listener closes and RunServer returns.
// A nil error means a clean drain; context.DeadlineExceeded means the
// grace period expired with requests still in flight (they were then
// cut off).
func RunServer(ctx context.Context, ln net.Listener, s *Server, grace time.Duration) error {
	srv := &http.Server{
		Handler: s.Handler(),
		// Slow-loris guard: a client gets one minute to deliver its
		// request. Responses are unbounded deliberately — a polyhedra
		// run on a large batch can legitimately take many minutes, and
		// cutting it off would waste the whole analysis.
		ReadTimeout: time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Listener failed before shutdown was requested.
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	if grace > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, grace)
		defer cancel()
	}
	err := srv.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed by now
	return err
}

// NotifyContext returns a context cancelled on SIGINT or SIGTERM — the
// signal wiring used by cmd/cssv-serve, exposed here so tests exercise
// the same code path.
func NotifyContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
