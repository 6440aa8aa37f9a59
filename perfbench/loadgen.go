package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// outcome is one sent request, with times as offsets from the phase start.
type outcome struct {
	req        *request
	due        time.Duration // open loop: scheduled send time; closed loop: send time
	start, end time.Duration
	code       int
	body       []byte
	err        error
}

// latency is the time from when the request was due to its reply, so a
// stall also charges the requests queued behind it.
func (o *outcome) latency() time.Duration { return o.end - o.due }

// newClients returns n HTTP clients of one keep-alive connection each: the
// generator never holds more connections than it has clients.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 15 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

func send(c *http.Client, base string, r *request) (int, []byte, error) {
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openLoop sends pl.reqs[i] at pl.at[i] over the clients: each client
// takes the next request in schedule order, waits for its send time, and
// sends it, so a request whose time has come while every client is busy
// goes out late and its latency counts the wait.
func openLoop(clients []*http.Client, base string, pl *plan) []outcome {
	out := make([]outcome, len(pl.reqs))
	var next atomic.Int64
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pl.reqs) {
					return
				}
				if d := time.Until(t0.Add(pl.at[i])); d > 0 {
					time.Sleep(d)
				}
				o := &out[i]
				o.req, o.due, o.start = &pl.reqs[i], pl.at[i], time.Since(t0)
				o.code, o.body, o.err = send(c, base, o.req)
				o.end = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop runs one client per connection for span: client k walks the
// cycle from k/n of the way in, sending each request once the previous one
// replied.
func closedLoop(clients []*http.Client, base string, pl *plan, span time.Duration) []outcome {
	per := make([][]outcome, len(clients))
	t0 := time.Now()
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			for i := k * len(pl.reqs) / len(clients); time.Since(t0) < span; i++ {
				o := outcome{req: &pl.reqs[i%len(pl.reqs)], start: time.Since(t0)}
				o.due = o.start
				o.code, o.body, o.err = send(c, base, o.req)
				o.end = time.Since(t0)
				per[k] = append(per[k], o)
			}
		}(k, c)
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// sequential sends reqs one at a time on c, each gap after the previous
// reply, starting at offset t0 of the phase.
func sequential(c *http.Client, base string, reqs []request, t0, gap time.Duration) []outcome {
	start := time.Now().Add(-t0)
	out := make([]outcome, len(reqs))
	for i := range reqs {
		time.Sleep(gap)
		o := &out[i]
		o.req, o.start = &reqs[i], time.Since(start)
		o.due = o.start
		o.code, o.body, o.err = send(c, base, o.req)
		o.end = time.Since(start)
	}
	return out
}

// runReply is the part of a /v1/run reply the check compares.
type runReply struct {
	Status string   `json:"status"`
	Trace  []string `json:"trace"`
	Error  string   `json:"error"`
}

// check compares one reply with the request's expected outcome: a non-2xx
// reply (429 included), a transport error or client timeout, or a
// different status, trace or translation is a failure.
func check(r *request, code int, body []byte, err error) error {
	switch {
	case err != nil:
		return err
	case code/100 != 2:
		return fmt.Errorf("HTTP %d: %s", code, clip(body))
	case r.path == codegenPath:
		var resp server.CodegenResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode codegen reply: %w", err)
		}
		if resp.Source != r.want.source {
			return fmt.Errorf("translation differs from the reference")
		}
		return nil
	}
	var resp runReply
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode run reply: %w", err)
	}
	if resp.Status != r.want.status {
		return fmt.Errorf("status %q, want %q (%s)", resp.Status, r.want.status, resp.Error)
	}
	if r.want.trace != nil && !slices.Equal(resp.Trace, r.want.trace) {
		return fmt.Errorf("trace differs from the reference: got %q", clip([]byte(fmt.Sprint(resp.Trace))))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
