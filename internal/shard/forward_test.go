package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The forwarder tests pin the behaviour of net/http's Transport that the
// router relies on. Each runs once per forwarding path: the router's own
// pools, and Config.Client over a stock Transport.
func forwarders(t *testing.T, f func(t *testing.T, client *http.Client)) {
	t.Run("default", func(t *testing.T) { f(t, nil) })
	t.Run("transport", func(t *testing.T) {
		tr := &http.Transport{}
		t.Cleanup(tr.CloseIdleConnections)
		f(t, &http.Client{Transport: tr})
	})
}

func replyOK(w http.ResponseWriter, r *http.Request) {
	fmt.Fprint(w, `{"id":"s-1","status":"ok"}`)
}

// countingServer starts an httptest server whose accepted connections are
// counted.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	cl := &countingListener{Listener: ts.Listener}
	ts.Listener = cl
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, cl
}

// spareRouter puts the backend at url in slot 0 and a spare stub in slot
// 1, with the probes parked so that only forwards touch either.
func spareRouter(t *testing.T, url string, cfg Config) (*Router, *stubBackend) {
	t.Helper()
	spare := newStubBackend(t)
	spare.mux.HandleFunc("POST /v1/run", replyOK)
	cfg.Backends = []string{url, spare.ts.URL}
	cfg.HealthInterval = time.Hour
	return newTestRouter(t, cfg), spare
}

// ownedBody returns a run body whose program is tag plus a number and
// whose first ring preference is slot 0.
func ownedBody(rt *Router, tag string) string {
	for i := 0; ; i++ {
		body := fmt.Sprintf(`{"project":"(%s%d)"}`, tag, i)
		if rt.Ring().Prefer(placementKey([]byte(body)))[0] == 0 {
			return body
		}
	}
}

// tcpBackend serves every connection it accepts with serve, on raw TCP,
// and closes it when serve returns.
func tcpBackend(t testing.TB, serve func(conn net.Conn)) (url string, accepts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			mu.Lock()
			conns[conn] = true
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return "http://" + ln.Addr().String(), accepts
}

// TestIdleCloseBetweenForwardsDialsFresh: a backend that closes an idle
// pooled connection before the next forward (its idle timeout, say) costs
// that forward nothing. It reaches the same backend on a fresh
// connection, with no retry and no strike against the backend.
func TestIdleCloseBetweenForwardsDialsFresh(t *testing.T) {
	forwarders(t, func(t *testing.T, client *http.Client) {
		ts, cl := countingServer(t, replyOK)
		rt, spare := spareRouter(t, ts.URL, Config{Client: client, FailThreshold: 1})
		body := ownedBody(rt, "p")
		if rec := postRun(t, rt.Handler(), body, nil); rec.Code != http.StatusOK {
			t.Fatalf("warm-up forward: %d %s", rec.Code, rec.Body.String())
		}
		ts.CloseClientConnections()
		// Transport learns of the hang-up on its own read goroutine;
		// the pause lets it run, so both forwarders face a connection
		// they could know is closed.
		time.Sleep(100 * time.Millisecond)
		if rec := postRun(t, rt.Handler(), body, nil); rec.Code != http.StatusOK {
			t.Fatalf("forward after the idle close: %d %s", rec.Code, rec.Body.String())
		}
		if n := cl.accepts.Load(); n != 2 {
			t.Errorf("backend accepted %d connections, want 2 (the pooled one, then a fresh one)", n)
		}
		st := rt.Stats()
		if st.Retries != 0 {
			t.Errorf("retries = %d, want 0", st.Retries)
		}
		if b := st.Backends[0]; !b.Healthy || b.Ejections != 0 {
			t.Errorf("backend struck for closing an idle connection: %+v", b)
		}
		if n := spare.hitCount("/v1/run"); n != 0 {
			t.Errorf("spare served %d requests, want 0", n)
		}
	})
}

// TestLongReplyRelayed: a reply above net/http's 2 KB chunking threshold
// arrives chunked and is relayed byte-identical with its headers, and the
// connection that carried it carries the next forward too.
func TestLongReplyRelayed(t *testing.T) {
	trace := strings.TrimSuffix(strings.Repeat(`"[t=0] S says \"hello\"",`, 400), ",")
	reply := `{"id":"s-long","status":"ok","trace":[` + trace + "]}\n"
	forwarders(t, func(t *testing.T, client *http.Client) {
		ts, cl := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Header().Set("Retry-After", "3")
			w.Header().Set("X-Request-ID", "req-from-backend")
			io.WriteString(w, reply) //nolint:errcheck
		})
		rt := newTestRouter(t, Config{Backends: []string{ts.URL}, Client: client, HealthInterval: time.Hour})
		for i := 0; i < 2; i++ {
			rec := postRun(t, rt.Handler(), `{"project":"(long)"}`, nil)
			if rec.Code != http.StatusOK || rec.Body.String() != reply {
				t.Fatalf("forward %d: %d, %d bytes; want 200 and the backend's %d bytes", i, rec.Code, rec.Body.Len(), len(reply))
			}
			for h, want := range map[string]string{
				"Content-Type": "application/json; charset=utf-8",
				"Retry-After":  "3",
				"X-Request-ID": "req-from-backend",
			} {
				if got := rec.Header().Get(h); got != want {
					t.Errorf("forward %d: %s = %q, want %q", i, h, got, want)
				}
			}
		}
		if n := cl.accepts.Load(); n != 1 {
			t.Errorf("two forwards opened %d connections, want 1", n)
		}
	})
}

// TestClientGoneMidForward: when the client disconnects while its request
// runs, the router drops the connection carrying it, which ends the run's
// request context on the backend, and replays nothing.
func TestClientGoneMidForward(t *testing.T) {
	forwarders(t, func(t *testing.T, client *http.Client) {
		started, gone := make(chan struct{}), make(chan struct{})
		ts, cl := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if strings.Contains(string(body), "hang") {
				close(started)
				<-r.Context().Done() // the server saw the connection close
				close(gone)
				return
			}
			replyOK(w, r)
		})
		rt, spare := spareRouter(t, ts.URL, Config{Client: client})
		warm, hang := ownedBody(rt, "warm"), ownedBody(rt, "hang")
		if rec := postRun(t, rt.Handler(), warm, nil); rec.Code != http.StatusOK {
			t.Fatalf("warm-up forward: %d %s", rec.Code, rec.Body.String())
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(hang)).WithContext(ctx)
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			done <- rec
		}()
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the hanging request never reached the backend")
		}
		cancel()
		if rec := <-done; rec.Code != http.StatusBadGateway {
			t.Errorf("abandoned forward answered %d, want 502", rec.Code)
		}
		select {
		case <-gone:
		case <-time.After(5 * time.Second):
			t.Fatal("the router kept the connection of an abandoned forward open")
		}
		if rec := postRun(t, rt.Handler(), warm, nil); rec.Code != http.StatusOK {
			t.Fatalf("forward after the abandoned one: %d %s", rec.Code, rec.Body.String())
		}
		if n := cl.accepts.Load(); n != 2 {
			t.Errorf("backend accepted %d connections, want 2: the abandoned one must not be pooled", n)
		}
		if n := spare.hitCount("/v1/run"); n != 0 {
			t.Errorf("abandoned request replayed onto the spare %d times", n)
		}
		if st := rt.Stats(); st.Retries != 0 {
			t.Errorf("retries = %d, want 0", st.Retries)
		}
	})
}

// TestConnectionCloseNotReused: a reply that says Connection: close ends
// its connection, even when the backend would go on reading it.
func TestConnectionCloseNotReused(t *testing.T) {
	forwarders(t, func(t *testing.T, client *http.Client) {
		url, accepts := tcpBackend(t, func(conn net.Conn) {
			br := bufio.NewReader(conn)
			for {
				req, err := http.ReadRequest(br)
				if err != nil {
					return
				}
				io.Copy(io.Discard, req.Body) //nolint:errcheck
				const ok = `{"id":"s-close","status":"ok"}`
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(ok), ok)
			}
		})
		rt := newTestRouter(t, Config{Backends: []string{url}, Client: client, HealthInterval: time.Hour})
		for i := 0; i < 2; i++ {
			if rec := postRun(t, rt.Handler(), `{"project":"(p)"}`, nil); rec.Code != http.StatusOK {
				t.Fatalf("forward %d: %d %s", i, rec.Code, rec.Body.String())
			}
		}
		if n := accepts.Load(); n != 2 {
			t.Errorf("two forwards opened %d connections, want 2", n)
		}
		if st := rt.Stats(); st.Retries != 0 {
			t.Errorf("retries = %d, want 0", st.Retries)
		}
	})
}

// TestClientBytesNeverReachTheWire: nothing a client sends reaches the
// request line or a header raw. A session ID with a control character is
// refused; one with a space or a question mark is forwarded path-escaped,
// as one path segment. An X-Request-ID or Content-Type that cannot be a
// header value is refused before any backend sees the request.
func TestClientBytesNeverReachTheWire(t *testing.T) {
	forwarders(t, func(t *testing.T, client *http.Client) {
		sb := newStubBackend(t)
		var mu sync.Mutex
		var gotQuery []string
		sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
			var body struct{ Project string }
			json.NewDecoder(r.Body).Decode(&body)                                            //nolint:errcheck
			json.NewEncoder(w).Encode(map[string]string{"id": body.Project, "status": "ok"}) //nolint:errcheck
		})
		sb.mux.HandleFunc("GET /v1/sessions/", func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			gotQuery = append(gotQuery, r.URL.RawQuery)
			mu.Unlock()
			fmt.Fprint(w, `{"state":"done"}`)
		})
		rt := newTestRouter(t, Config{Backends: []string{sb.ts.URL}, Client: client, HealthInterval: time.Hour})
		get := func(target string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			return rec
		}
		for _, id := range []string{"a\r\nb", "a b?c"} {
			b, _ := json.Marshal(map[string]string{"project": id})
			if rec := postRun(t, rt.Handler(), string(b), nil); rec.Code != http.StatusOK {
				t.Fatalf("run for session %q: %d %s", id, rec.Code, rec.Body.String())
			}
		}

		if rec := get("/v1/sessions/a%0D%0Ab"); rec.Code != http.StatusBadRequest {
			t.Errorf("session ID with CR/LF: %d %s, want 400", rec.Code, rec.Body.String())
		}
		if rec := get("/v1/sessions/a%20b%3Fc"); rec.Code != http.StatusOK {
			t.Errorf("session ID with a space and '?': %d %s, want 200", rec.Code, rec.Body.String())
		}
		if n := sb.hitCount("/v1/sessions/a b?c"); n != 1 {
			t.Errorf("backend saw the escaped session path %d times, want 1", n)
		}
		mu.Lock()
		if len(gotQuery) != 1 || gotQuery[0] != "" {
			t.Errorf("backend session lookups carried queries %q, want one with none", gotQuery)
		}
		mu.Unlock()

		runs := sb.hitCount("/v1/run")
		for name, hdr := range map[string]map[string]string{
			"X-Request-ID": {"X-Request-ID": "id\r\nX-Injected: 1"},
			"Content-Type": {"Content-Type": "application/json\x00"},
		} {
			if rec := postRun(t, rt.Handler(), `{"project":"(p)"}`, hdr); rec.Code != http.StatusBadRequest {
				t.Errorf("invalid %s: %d %s, want 400", name, rec.Code, rec.Body.String())
			}
		}
		if n := sb.hitCount("/v1/run") - runs; n != 0 {
			t.Errorf("backend saw %d runs with invalid headers", n)
		}
		if b := rt.Stats().Backends[0]; !b.Healthy {
			t.Errorf("a client's bad header struck the backend: %+v", b)
		}
	})
}

// FuzzForwardReply holds the default forwarder to net/http's Transport on
// whatever bytes a backend answers with. A raw TCP backend reads one
// request, writes the fuzzed reply and hangs up. A router over the
// default pools and one whose Config.Client wraps a Transport must relay
// the same status, headers and body, or both answer 502 with the same
// retry decision. The Transport asks for no compression, as the default
// forwarder does not: a Transport that asked would decompress a gzip
// reply its caller never asked for.
func FuzzForwardReply(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"id\":\"s1\"}",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nX-Request-ID: r-1\r\nContent-Length: 16\r\n\r\n{\"error\":\"busy\"}",
		"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\ntruncated",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
		"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\nuntil the end",
		"HTTP/1.1 500 Internal Server Error\r\nConnection: close\r\nContent-Length: 5\r\n\r\nfault",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\nConnection: Upgrade\r\n\r\nraw bytes",
		"HTTP/1.0 200 OK\r\n\r\nuntil close",
		"HTTP/1.1 200 OK\r\nContent-Le",
		"",
		"garbage\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		url, _ := tcpBackend(t, func(conn net.Conn) {
			req, err := http.ReadRequest(bufio.NewReader(conn))
			if err != nil {
				return
			}
			io.Copy(io.Discard, req.Body) //nolint:errcheck
			conn.Write(reply)             //nolint:errcheck
		})
		tr := &http.Transport{DisableCompression: true}
		defer tr.CloseIdleConnections()
		var recs [2]*httptest.ResponseRecorder
		for i, client := range []*http.Client{nil, {Transport: tr}} {
			rt, err := New(Config{Backends: []string{url}, Client: client, HealthInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = postRun(t, rt.Handler(), `{"project":"(p)"}`, map[string]string{"X-Request-ID": "req-fuzz"})
			rt.Close()
		}
		def, ref := recs[0], recs[1]
		// A 502 of the router's own shows the retry decision in its
		// wording; error details may differ.
		failure := func(rec *httptest.ResponseRecorder) (failed, unsent bool) {
			var eb errorBody
			if rec.Code != http.StatusBadGateway || json.Unmarshal(rec.Body.Bytes(), &eb) != nil {
				return false, false
			}
			switch {
			case strings.HasPrefix(eb.Error, "all placement candidates unreachable"):
				return true, true
			case strings.HasPrefix(eb.Error, "backend 0 "):
				return true, false
			}
			return false, false
		}
		defFailed, defUnsent := failure(def)
		refFailed, refUnsent := failure(ref)
		if defFailed || refFailed {
			if defFailed != refFailed || defUnsent != refUnsent {
				t.Fatalf("default: %d %s\nTransport: %d %s", def.Code, def.Body.String(), ref.Code, ref.Body.String())
			}
			return
		}
		if def.Code != ref.Code {
			t.Fatalf("status %d, Transport %d", def.Code, ref.Code)
		}
		for _, h := range []string{"Content-Type", "Retry-After", "X-Request-ID"} {
			if def.Header().Get(h) != ref.Header().Get(h) {
				t.Fatalf("%s = %q, Transport %q", h, def.Header().Get(h), ref.Header().Get(h))
			}
		}
		if def.Body.String() != ref.Body.String() {
			t.Fatalf("body %q, Transport %q", def.Body.String(), ref.Body.String())
		}
	})
}

// TestBodyCap: a body over MaxBodyBytes gets a 413 whether or not it
// declares its length, and one under the cap reaches the backend whole.
func TestBodyCap(t *testing.T) {
	var mu sync.Mutex
	var got []string
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, string(b))
		mu.Unlock()
		replyOK(w, r)
	})
	rt := newTestRouter(t, Config{Backends: []string{sb.ts.URL}, MaxBodyBytes: 64, HealthInterval: time.Hour})
	small, big := `{"project":"(p)"}`, `{"project":"(`+strings.Repeat("x", 64)+`)"}`
	for _, c := range []struct {
		name, body string
		length     int64 // -1: no Content-Length
		want       int
	}{
		{"small", small, int64(len(small)), http.StatusOK},
		{"small, no length", small, -1, http.StatusOK},
		{"big", big, int64(len(big)), http.StatusRequestEntityTooLarge},
		{"big, no length", big, -1, http.StatusRequestEntityTooLarge},
	} {
		req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(c.body))
		req.ContentLength = c.length
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s: %d %s, want %d", c.name, rec.Code, rec.Body.String(), c.want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != small || got[1] != small {
		t.Errorf("backend got bodies %q, want the small one twice", got)
	}
}

// TestSessionIDMatchesDecode: the session ID read off a reply's opening
// bytes is the one a full decode finds. The one difference: a reply that
// opens with an ID but is not valid JSON past it still gives up the ID,
// because the rest is never read.
func TestSessionIDMatchesDecode(t *testing.T) {
	for _, reply := range []string{
		"{\n  \"id\": \"s-0123abcd\",\n  \"status\": \"ok\",\n  \"trace\": [\"S says \\\"hi\\\"\"]\n}\n",
		`{"id":"s-1","status":"ok"}`,
		`{"id":"s-A\"q","status":"ok"}`,
		"{\"id\":\"s-é\"}",
		`{"status":"ok","id":"s-late"}`,
		`{"id":"","status":"ok"}`,
		`{"error":"overloaded"}`,
		`not json`,
	} {
		var run struct {
			ID string `json:"id"`
		}
		json.Unmarshal([]byte(reply), &run) //nolint:errcheck // a failed decode finds no ID
		if got := sessionID([]byte(reply)); got != run.ID {
			t.Errorf("sessionID(%q) = %q, decode finds %q", reply, got, run.ID)
		}
	}
	if got := sessionID([]byte(`{"id":"s-1"`)); got != "s-1" {
		t.Errorf("sessionID of a truncated reply = %q, want the leading s-1", got)
	}
}
