package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// panicMarshaler panics while being encoded, as a buggy response type
// would.
type panicMarshaler struct{}

func (panicMarshaler) MarshalJSON() ([]byte, error) { panic("encode bug") }

// TestHandlerPanicAnswers500AndKeepsConnection: a panic in handler code
// outside a session is answered with a fault-shaped 500, and the
// keep-alive connection carries the next request. Without the answer, a
// fronting router could not tell the dropped connection from one the
// backend never read.
func TestHandlerPanicAnswers500AndKeepsConnection(t *testing.T) {
	s := New(Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /panic", s.instrument("/panic", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	mux.HandleFunc("GET /encode", s.instrument("/encode", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, panicMarshaler{})
	}))
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var reused []bool
	get := func(path string) (int, []byte) {
		t.Helper()
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	for _, c := range []struct{ path, want string }{
		{"/panic", "handler bug"},
		{"/encode", "encode bug"},
	} {
		code, body := get(c.path)
		if code != http.StatusInternalServerError {
			t.Fatalf("GET %s = %d, want 500 (body %s)", c.path, code, body)
		}
		var fb struct {
			Status runtime.Status `json:"status"`
			Error  string         `json:"error"`
		}
		if err := json.Unmarshal(body, &fb); err != nil {
			t.Fatalf("GET %s body %q: %v", c.path, body, err)
		}
		if fb.Status != runtime.StatusFault || !strings.Contains(fb.Error, c.want) {
			t.Errorf("GET %s body = %+v, want status fault carrying %q", c.path, fb, c.want)
		}
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz after the panics = %d: %s", code, body)
	}
	for i, r := range reused[1:] {
		if !r {
			t.Errorf("request %d opened a new connection; a contained panic must keep the connection alive", i+2)
		}
	}
}

// TestHandlerPanicAfterAnswerBegunDropsConnection: once part of an answer
// is written, a panic cannot turn it into a 500, so the written part is
// flushed and the connection dropped: the client sees a broken answer,
// never silence.
func TestHandlerPanicAfterAnswerBegunDropsConnection(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.instrument("/partial", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"id":`) //nolint:errcheck
		panic("late bug")
	}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatalf("no answer at all: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want the 200 already written", resp.StatusCode)
	}
	if body, err := io.ReadAll(resp.Body); err == nil {
		t.Errorf("body %q read cleanly; want the dropped connection to show", body)
	}
}
