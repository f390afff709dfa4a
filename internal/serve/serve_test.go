package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func post(t *testing.T, ts *httptest.Server, path string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestServeWarmProcess(t *testing.T) {
	src, err := os.ReadFile("../../testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{CacheDir: t.TempDir(), Workers: 1}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: resp=%v err=%v", resp, err)
	}

	req := Request{
		Filename: "skipline.c",
		Source:   string(src),
		Config:   RequestConfig{Cascade: true, Quiet: true},
	}
	var cold, warm Response
	post(t, ts, "/v1/analyze", req, &cold)
	if cold.Error != "" || cold.ExitCode != 1 || cold.Messages != 1 {
		t.Fatalf("cold response: %+v", cold)
	}
	if !strings.Contains(cold.Output, "precondition of SkipLine may be violated") {
		t.Errorf("cold output missing the expected message:\n%s", cold.Output)
	}
	post(t, ts, "/v1/analyze", req, &warm)
	if warm.Output != cold.Output || warm.ExitCode != cold.ExitCode {
		t.Errorf("warm response differs from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	var stats Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests != 2 || stats.CacheHits == 0 || stats.CacheStores == 0 {
		t.Errorf("stats after warm run: %+v", stats)
	}
}

func TestServeBatchAndErrors(t *testing.T) {
	src, err := os.ReadFile("../../testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Workers: 1}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := BatchRequest{Requests: []Request{
		{Filename: "skipline.c", Source: string(src), Config: RequestConfig{Cascade: true, Quiet: true}},
		{Filename: "broken.c", Source: "void f( {", Config: RequestConfig{}},
		// An unknown domain is a config error, not a panic.
		{Filename: "skipline.c", Source: string(src), Config: RequestConfig{Domain: "bogus"}},
	}}
	var resp BatchResponse
	post(t, ts, "/v1/batch", batch, &resp)
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Messages != 1 {
		t.Errorf("batch result 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || resp.Results[1].ExitCode != 2 {
		t.Errorf("batch result 1 should be a parse failure: %+v", resp.Results[1])
	}
	if r := resp.Results[2]; r.Error == "" || r.ExitCode != 2 {
		t.Errorf("batch result 2 should reject domain \"bogus\": %+v", r)
	}

	// An unknown config key (a misspelled "cascade", or a deleted knob)
	// is rejected before analysis instead of silently running the
	// default config.
	for _, key := range []string{"cascde", "octagon"} {
		for _, path := range []string{"/v1/analyze", "/v1/batch"} {
			body := `{"filename":"skipline.c","source":"","config":{"` + key + `":true}}`
			if path == "/v1/batch" {
				body = `{"requests":[` + body + `]}`
			}
			r, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusBadRequest || !strings.HasPrefix(string(msg), "malformed request") {
				t.Errorf("%s with unknown config key %q: status %d, body %q; want 400 malformed request",
					path, key, r.StatusCode, msg)
			}
		}
	}

	if r, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader("{not json")); err != nil || r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: resp=%v err=%v", r, err)
	}
	if r, err := http.Get(ts.URL + "/v1/analyze"); err != nil || r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: resp=%v err=%v", r, err)
	}

	// Rejected HTTP requests never reach the analyzer: only the three
	// batch jobs count, two of which failed.
	if got := srv.Snapshot(); got.Requests != 3 || got.Failures != 2 {
		t.Errorf("snapshot: %+v", got)
	}
}

func TestServeBodyLimit(t *testing.T) {
	srv := &Server{Workers: 1, MaxRequestBytes: 1024}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big, err := json.Marshal(Request{Filename: "big.c", Source: strings.Repeat("x", 4096)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// A request inside the bound still works.
	var out Response
	post(t, ts, "/v1/analyze", Request{Filename: "ok.c", Source: "void f(void) { }"}, &out)
	if out.Error != "" || out.ExitCode != 0 {
		t.Fatalf("small request after rejection: %+v", out)
	}
	// The rejected body never reached the analyzer.
	if got := srv.Snapshot(); got.Requests != 1 {
		t.Errorf("requests = %d, want 1", got.Requests)
	}
}

func TestRunServerGracefulShutdown(t *testing.T) {
	src, err := os.ReadFile("../../testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Workers: 1}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunServer(ctx, ln, srv, 30*time.Second) }()

	// Launch a real analysis, then request shutdown while it is in
	// flight: the drain must let it finish and deliver the full answer.
	body, err := json.Marshal(Request{
		Filename: "skipline.c",
		Source:   string(src),
		Config:   RequestConfig{Cascade: true, Quiet: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String() + "/v1/analyze"
	type result struct {
		resp Response
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out Response
		err = json.NewDecoder(resp.Body).Decode(&out)
		inflight <- result{resp: out, err: err}
	}()

	// Wait until the request is being served before cancelling, so the
	// shutdown genuinely races an in-flight analysis.
	for srv.Snapshot().Requests == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request cut off by shutdown: %v", r.err)
	}
	if r.resp.Error != "" || r.resp.Messages != 1 {
		t.Errorf("in-flight response: %+v", r.resp)
	}
	if err := <-done; err != nil {
		t.Errorf("RunServer: %v", err)
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
