package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The default forwarder. A forward is one buffered request and one
// buffered reply, so the router drives its backend connections itself, on
// the handler goroutine: one flush of the request, then the reply read on
// the same connection. No per-connection read and write goroutines, and
// no hand-offs between them and the handler.

// aLongTimeAgo is a deadline in the past: setting it makes a blocked read
// or write on a connection return at once.
var aLongTimeAgo = time.Unix(1, 0)

// presizeLimit bounds the bodies read into a buffer allocated once from
// their Content-Length; a longer one grows as it arrives, so a header
// alone cannot make the router allocate much.
const presizeLimit = 1 << 20

// backendConn is one keep-alive connection to a backend with its own
// buffers.
type backendConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	peek [1]byte // idleOpen's peek buffer
}

// connPool is one backend's stack of idle keep-alive connections. A
// connection is pooled only after it carried an exchange, so a backend
// never holds a connection the router dialed without a request in hand.
// The most recently used connection goes out first.
type connPool struct {
	base   string // the backend URL, for errors
	addr   string // dial address, host:port
	host   string // Host header
	prefix string // the backend URL's path, ahead of every request path
	max    int

	mu     sync.Mutex
	idle   []*backendConn
	closed bool
}

func newConnPool(backend string, max int) (*connPool, error) {
	u, err := url.Parse(backend)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("backend %q: want http://host[:port] (set Config.Client for other schemes)", backend)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &connPool{base: backend, addr: addr, host: u.Host, prefix: u.EscapedPath(), max: max}, nil
}

// get pops the most recently pooled connection the backend still holds
// open, or dials a fresh one. reused reports a pooled connection.
func (p *connPool) get(ctx context.Context) (bc *backendConn, reused bool, err error) {
	for {
		p.mu.Lock()
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			break
		}
		bc = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if idleOpen(bc) {
			return bc, true, nil
		}
		bc.conn.Close()
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, false, err
	}
	return &backendConn{conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, false, nil
}

// put pools a connection whose exchange ended cleanly, or closes it when
// the pool is full or closed.
func (p *connPool) put(bc *backendConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.max {
		p.idle = append(p.idle, bc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	bc.conn.Close()
}

// close closes the idle connections and every one returned later.
func (p *connPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, bc := range idle {
		bc.conn.Close()
	}
}

// forward sends one request on a pooled or fresh connection and reads the
// whole reply. The connection goes back to the pool unless the reply said
// Connection: close, the exchange failed, or ctx ended; an ended ctx sets
// a past deadline, which fails the read or write in progress. On failure,
// isUnsent reports whether the backend provably never served the request.
func (p *connPool) forward(ctx context.Context, method, path, reqID, contentType string, body []byte) (resp *http.Response, respBody []byte, isUnsent bool, err error) {
	bc, reused, err := p.get(ctx)
	if err != nil {
		return nil, nil, unsent(false, false, false, err), &url.Error{Op: method, URL: p.base + path, Err: err}
	}
	stop := context.AfterFunc(ctx, func() { bc.conn.SetDeadline(aLongTimeAgo) }) //nolint:errcheck // a closed conn fails the exchange anyway
	resp, respBody, gotByte, err := p.exchange(bc, method, path, reqID, contentType, body)
	if stop() && err == nil && !resp.Close && bc.br.Buffered() == 0 {
		p.put(bc)
	} else {
		bc.conn.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, nil, unsent(reused, true, gotByte, err), &url.Error{Op: method, URL: p.base + path, Err: err}
	}
	return resp, respBody, false, nil
}

// exchange writes one request on bc in a single flush and reads its reply,
// skipping 1xx interim replies as net/http's Transport does. gotByte
// reports that a byte of a reply arrived, after which the backend has
// served the request.
func (p *connPool) exchange(bc *backendConn, method, path, reqID, contentType string, body []byte) (resp *http.Response, respBody []byte, gotByte bool, err error) {
	w := bc.bw
	w.WriteString(method)
	w.WriteByte(' ')
	w.WriteString(p.prefix)
	w.WriteString(path)
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(p.host)
	if body != nil {
		w.WriteString("\r\nContent-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(body)), 10))
	}
	if contentType != "" {
		w.WriteString("\r\nContent-Type: ")
		w.WriteString(contentType)
	}
	w.WriteString("\r\nX-Request-ID: ")
	w.WriteString(reqID)
	w.WriteString("\r\n\r\n")
	w.Write(body)
	if err = w.Flush(); err != nil { // a bufio.Writer keeps its first error
		return nil, nil, false, err
	}
	if _, err = bc.br.Peek(1); err != nil {
		return nil, nil, false, err
	}
	for {
		if resp, err = http.ReadResponse(bc.br, nil); err != nil {
			return nil, nil, true, err
		}
		if resp.StatusCode < 100 || resp.StatusCode > 199 || resp.StatusCode == http.StatusSwitchingProtocols {
			break
		}
	}
	if resp.StatusCode == http.StatusSwitchingProtocols && switchesProtocol(resp.Header) {
		// As Transport does, the rest of the connection is the body.
		resp.Body, resp.ContentLength, resp.Close = io.NopCloser(bc.br), -1, true
	}
	if respBody, err = readAll(resp.Body, resp.ContentLength); err != nil {
		return nil, nil, true, err
	}
	return resp, respBody, true, nil
}

// readAll reads r to its end, into one allocation when its length n is
// known (n >= 0).
func readAll(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > presizeLimit {
		return io.ReadAll(r)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// switchesProtocol reports the headers of a protocol upgrade: an Upgrade
// header and the upgrade token in Connection.
func switchesProtocol(h http.Header) bool {
	if h.Get("Upgrade") == "" {
		return false
	}
	for _, v := range h["Connection"] {
		for _, tok := range strings.Split(v, ",") {
			if strings.EqualFold(strings.Trim(tok, " \t"), "upgrade") {
				return true
			}
		}
	}
	return false
}

// validHeaderValue reports whether v may be sent as a header value: no
// control byte but a tab, as net/http checks before it writes a header.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < ' ' && b != '\t' || b == 0x7f {
			return false
		}
	}
	return true
}
