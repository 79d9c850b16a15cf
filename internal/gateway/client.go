package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stochroute/internal/httpsvc"
)

// idleConnsPerReplica is how many keep-alive connections the gateway
// parks per replica between requests. The gateway bounds neither its
// own concurrency nor its clients', and a request that finds no parked
// connection dials: at net/http's default of 2, a fleet under a third
// concurrent request per replica closes and re-dials continuously. 64
// parked sockets per replica is small next to the dials it saves.
const idleConnsPerReplica = 64

// idleTimeout is how long a parked connection may wait for its next
// request before it is closed.
const idleTimeout = 90 * time.Second

// connBufSize is the size of each connection's reader and of its
// writer, reused by every request the connection carries.
const connBufSize = 4 << 10

// maxHeadBytes caps one response head, status line and header lines
// together.
const maxHeadBytes = 64 << 10

// max1xx bounds the informational heads skipped before an answer, as
// net/http bounds them.
const max1xx = 5

// connPool is the gateway's HTTP/1.1 client of one replica: where the
// replica is, and its parked keep-alive connections, most recently
// parked last (see the package documentation, "Transport").
type connPool struct {
	base   string // the replica's base URL, as an error names it
	addr   string // host:port to dial
	host   string // the Host header
	prefix string // the base URL's escaped path, before every request path
	// replica is the X-Replica value slice of the replica's own ID,
	// shared by every answer that names it.
	replica []string
	// dial opens a connection to addr; the package's tests replace it.
	dial func(ctx context.Context, deadline time.Time, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle []*fleetConn
}

// newConnPool validates a replica's base URL, plain HTTP with a host,
// and builds its client; replica is the replica's X-Replica value.
func newConnPool(base string, replica []string) (*connPool, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("URL %q: the gateway reaches replicas over plain http, not %q", base, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("URL %q names no host", base)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &connPool{base: base, addr: addr, host: u.Host, prefix: u.EscapedPath(), replica: replica, dial: dialTCP}, nil
}

// dialTCP opens a TCP connection by the deadline, unless ctx ends first.
func dialTCP(ctx context.Context, deadline time.Time, addr string) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	return d.DialContext(ctx, "tcp", addr)
}

// fleetRequest is what one exchange writes: the request line after the
// replica's base path, the identity headers of the inbound request it
// serves and, for a POST, a JSON body.
type fleetRequest struct {
	method   string // http.MethodGet or http.MethodPost
	path     string // the path after the replica's base path
	rawQuery string
	// from is the inbound request whose identity headers are sent on:
	// X-Request-Id, Accept, Content-Type (a POST's is its body's) and
	// traceparent. nil sends none.
	from *http.Request
	// traceparent, when set, replaces from's: the gateway sampled the
	// request and the replica's spans join the gateway's trace.
	traceparent string
	body        []byte // a POST's body, sent as application/json
}

// do sends req to the replica and reads the head of its answer on the
// caller's goroutine. deadline bounds the whole exchange, through the
// answer's last body byte; ctx ending aborts it. The answer belongs to
// its connection: the caller reads its body and then calls close.
//
// A request written on a parked connection that fails before the first
// byte of an answer arrives is sent once more on a fresh dial: the
// replica most likely closed the connection while it was parked. A
// failure is wrapped as net/http's client wraps one, method and URL in
// front, so a 504 body or a down-mark log line names the replica.
func (p *connPool) do(ctx context.Context, deadline time.Time, req *fleetRequest) (*response, error) {
	c, err := p.get(ctx, deadline)
	if err == nil {
		var stale bool
		var resp *response
		if resp, stale, err = c.exchange(ctx, deadline, req); stale {
			if c, err = p.connect(ctx, deadline); err == nil {
				resp, _, err = c.exchange(ctx, deadline, req)
			}
		}
		if err == nil {
			return resp, nil
		}
	}
	op := "Get"
	if req.method == http.MethodPost {
		op = "Post"
	}
	target := p.base + req.path
	if req.rawQuery != "" {
		target += "?" + req.rawQuery
	}
	return nil, &url.Error{Op: op, URL: target, Err: err}
}

// get takes the most recently parked connection, or dials one. Parked
// connections past idleTimeout are closed on the way.
func (p *connPool) get(ctx context.Context, deadline time.Time) (*fleetConn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		if time.Since(c.idleAt) < idleTimeout {
			p.idle[n-1] = nil
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			return c, nil
		}
		p.closeIdleLocked() // the newest is stale, so are the rest
	}
	p.mu.Unlock()
	return p.connect(ctx, deadline)
}

// connect dials a fresh connection.
func (p *connPool) connect(ctx context.Context, deadline time.Time) (*fleetConn, error) {
	nc, err := p.dial(ctx, deadline, p.addr)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && ctx.Err() == nil {
			err = context.DeadlineExceeded
		}
		return nil, err
	}
	c := &fleetConn{pool: p, nc: nc, br: bufio.NewReaderSize(nc, connBufSize), bw: bufio.NewWriterSize(nc, connBufSize)}
	c.abort = c.abortNow
	c.fixed.c, c.chunked.c = c, c
	return c, nil
}

// put parks c for the next request, unless idleConnsPerReplica are
// parked already; connections parked longer than idleTimeout are
// closed on the way.
func (p *connPool) put(c *fleetConn) {
	now := time.Now()
	c.idleAt = now
	p.mu.Lock()
	expired := 0
	for expired < len(p.idle) && now.Sub(p.idle[expired].idleAt) >= idleTimeout {
		p.idle[expired].nc.Close()
		expired++
	}
	if expired > 0 {
		n := copy(p.idle, p.idle[expired:])
		clear(p.idle[n:])
		p.idle = p.idle[:n]
	}
	if len(p.idle) < idleConnsPerReplica {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.nc.Close()
	}
}

// closeIdle closes every parked connection.
func (p *connPool) closeIdle() {
	p.mu.Lock()
	p.closeIdleLocked()
	p.mu.Unlock()
}

func (p *connPool) closeIdleLocked() {
	for _, c := range p.idle {
		c.nc.Close()
	}
	clear(p.idle)
	p.idle = p.idle[:0]
}

// fleetConn is one keep-alive connection to a replica with its reused
// reader and writer, head scratch, answer and body readers.
type fleetConn struct {
	pool    *connPool
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	head    []byte // the current answer's head lines, each ending in '\n'
	resp    response
	fixed   fixedBody
	chunked chunkedBody
	idleAt  time.Time // when the connection was parked

	// ctx is the exchange's context; abort, made once per connection,
	// is what context.AfterFunc runs when ctx ends mid-exchange, and
	// stop unregisters it.
	ctx     context.Context
	abort   func()
	stop    func() bool
	aborted atomic.Bool
}

// aLongTimeAgo is a deadline in the past: setting it makes every
// pending read and write on the connection fail at once.
var aLongTimeAgo = time.Unix(1, 0)

// abortNow ends the exchange in flight: the caller's context ended.
func (c *fleetConn) abortNow() {
	c.aborted.Store(true)
	c.nc.SetDeadline(aLongTimeAgo)
}

// exchange writes req and reads the answer's head. stale reports a
// failure on a parked connection before any byte of an answer came
// back, which a fresh connection may retry; c is closed then.
func (c *fleetConn) exchange(ctx context.Context, deadline time.Time, req *fleetRequest) (resp *response, stale bool, err error) {
	reused := !c.idleAt.IsZero()
	c.ctx = ctx
	c.nc.SetDeadline(deadline)
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.abort)
	}
	err = c.write(req)
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		err = c.cause(err)
		c.finish(false)
		return nil, reused && !c.aborted.Load() && err != context.DeadlineExceeded, err
	}
	if err = c.readAnswer(); err != nil {
		err = c.cause(err)
		c.finish(false)
		return nil, false, err
	}
	return &c.resp, false, nil
}

// finish ends the exchange: the connection is parked when keep holds
// and the context did not abort it, and closed otherwise.
func (c *fleetConn) finish(keep bool) {
	if c.stop != nil {
		if !c.stop() {
			keep = false // abort ran or is running
		}
		c.stop = nil
	}
	c.ctx = nil
	if keep && !c.aborted.Load() {
		c.pool.put(c)
		return
	}
	c.nc.Close()
}

// cause names why the exchange failed as a context would: the caller's
// context's own error when it aborted the exchange, and
// context.DeadlineExceeded when the deadline passed.
func (c *fleetConn) cause(err error) error {
	if c.aborted.Load() {
		if cerr := c.ctx.Err(); cerr != nil {
			return cerr
		}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// write sends one request: the request line, Host, a POST's
// Content-Length, then Accept, Content-Type, Traceparent and
// X-Request-Id in that order (net/http's, sorted), then the body.
func (c *fleetConn) write(req *fleetRequest) error {
	w := c.bw
	w.WriteString(req.method)
	w.WriteByte(' ')
	w.WriteString(c.pool.prefix)
	w.WriteString(req.path)
	if req.rawQuery != "" {
		w.WriteByte('?')
		w.WriteString(req.rawQuery)
	}
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(c.pool.host)
	w.WriteString("\r\n")
	contentType := inboundValue(req.from, httpsvc.HeaderContentType)
	if req.method == http.MethodPost {
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(req.body)), 10))
		w.WriteString("\r\n")
		contentType = "application/json"
	}
	traceparent := req.traceparent
	if traceparent == "" {
		traceparent = inboundValue(req.from, httpsvc.HeaderTraceparent)
	}
	writeHeader(w, httpsvc.HeaderAccept, inboundValue(req.from, httpsvc.HeaderAccept))
	writeHeader(w, httpsvc.HeaderContentType, contentType)
	writeHeader(w, httpsvc.HeaderTraceparent, traceparent)
	writeHeader(w, httpsvc.HeaderRequestID, inboundValue(req.from, httpsvc.HeaderRequestID))
	w.WriteString("\r\n")
	w.Write(req.body)
	return w.Flush()
}

// inboundValue is the first value of a canonical header key of r, or ""
// when r is nil or the value could not be sent on (a control byte).
func inboundValue(r *http.Request, key string) string {
	if r == nil {
		return ""
	}
	v := httpsvc.HeaderValue(r.Header, key)
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < ' ' && b != '\t' || b == 0x7f {
			return ""
		}
	}
	return v
}

// writeHeader writes one header line; an empty value writes nothing.
func writeHeader(w *bufio.Writer, key, value string) {
	if value == "" {
		return
	}
	w.WriteString(key)
	w.WriteString(": ")
	w.WriteString(value)
	w.WriteString("\r\n")
}

// response is a replica's answer as the gateway reads it: the status,
// the three headers it relays, and the body. The common values of the
// relayed headers are shared slices; nothing may write through them.
type response struct {
	status int
	// contentType, cache and replica are the first values of
	// Content-Type, X-Cache and X-Replica; nil when absent or empty.
	contentType, cache, replica []string
	body                        io.Reader
	// keep reports that the connection may carry another request once
	// the body is read to its end.
	keep bool
	c    *fleetConn
}

// close ends the exchange. The connection is parked for the next
// request only when its body was read to the end.
func (r *response) close() {
	done := false
	switch r.body {
	case &r.c.fixed:
		done = r.c.fixed.n == 0
	case &r.c.chunked:
		done = r.c.chunked.done
	case http.NoBody:
		done = true
	}
	r.c.finish(r.keep && done)
}

// The common values of the relayed headers, shared by every answer
// that carries them; nothing may write through them.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// readAnswer reads the answer's head into c.resp, skipping
// informational (1xx) heads, and sets up its body reader.
func (c *fleetConn) readAnswer() error {
	for skipped := 0; ; skipped++ {
		if err := c.readHead(); err != nil {
			return err
		}
		st := c.resp.status
		if st < 100 || st == http.StatusSwitchingProtocols {
			return fmt.Errorf("replica answered status %d", st)
		}
		if st >= 200 {
			return nil
		}
		if skipped == max1xx {
			return errors.New("too many 1xx informational responses")
		}
	}
}

// headLines reads one head, status line to blank line, into c.head as
// lines without their line ends, each followed by '\n'. A line ends at
// '\n', and a '\r' before it is dropped, as bufio.Reader.ReadLine
// reads one.
func (c *fleetConn) headLines() error {
	head := c.head[:0]
	for {
		start := len(head)
		for {
			frag, err := c.br.ReadSlice('\n')
			if len(head)+len(frag) > maxHeadBytes {
				return errors.New("response head too large")
			}
			head = append(head, frag...)
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
		}
		end := len(head) - 1 // the '\n'
		if end > start && head[end-1] == '\r' {
			head[end-1] = '\n'
			head = head[:end]
		}
		c.head = head
		if len(head)-1 == start {
			return nil
		}
	}
}

// readHead reads one answer head into c.resp: the status line as
// net/http.ReadResponse parses it, the header lines as
// net/textproto.Reader.ReadMIMEHeader reads them (obs-fold
// continuations joined by one space, keys matched by their canonical
// form, the same bytes refused), and the framing as net/http decides
// it for a GET's answer. FuzzReadReplicaResponse holds it to
// net/http.ReadResponse.
func (c *fleetConn) readHead() error {
	// The scratch is the connection's for as long as it is parked: one
	// that an unusual head grew is not kept.
	defer func() {
		if cap(c.head) > 2*connBufSize {
			c.head = nil
		}
	}()
	if err := c.headLines(); err != nil {
		return err
	}
	head := c.head
	nl := bytes.IndexByte(head, '\n')
	line := head[:nl]
	head = head[nl+1:]

	// The status line.
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return errors.New("malformed HTTP response")
	}
	proto, status := line[:sp], line[sp+1:]
	for len(status) > 0 && status[0] == ' ' {
		status = status[1:]
	}
	code := status
	if i := bytes.IndexByte(code, ' '); i >= 0 {
		code = code[:i]
	}
	if len(code) != 3 {
		return errors.New("malformed HTTP status code")
	}
	st, ok := statusCode(code)
	if !ok {
		return errors.New("malformed HTTP status code")
	}
	major, minor, ok := httpVersion(proto)
	if !ok {
		return errors.New("malformed HTTP version")
	}

	r := &c.resp
	*r = response{status: st, c: c}
	var (
		contentLength []byte // the first Content-Length value
		haveLength    bool
		te            []byte // the first Transfer-Encoding value
		teCount       int
		hasClose      bool
		keepAlive     bool
	)
	if len(head) > 0 && (head[0] == ' ' || head[0] == '\t') {
		return errors.New("malformed MIME header initial line")
	}
	for len(head) > 0 {
		nl := bytes.IndexByte(head, '\n')
		if nl == 0 {
			break // the blank line
		}
		if bytes.IndexByte(head[:nl], ':') < 0 {
			return errors.New("malformed MIME header: missing colon")
		}
		kv := trimSpaceTab(head[:nl])
		head = head[nl+1:]
		if len(head) > 0 && (head[0] == ' ' || head[0] == '\t') {
			// obs-fold: continuation lines join the field with one
			// space each, as textproto joins them.
			kv = append([]byte(nil), kv...)
			for len(head) > 0 && (head[0] == ' ' || head[0] == '\t') {
				nl := bytes.IndexByte(head, '\n')
				kv = append(kv, ' ')
				kv = append(kv, trimSpaceTab(head[:nl])...)
				head = head[nl+1:]
			}
		}
		colon := bytes.IndexByte(kv, ':')
		key, value := kv[:colon], kv[colon+1:]
		canonical, ok := headerKey(key)
		if !ok {
			return errors.New("malformed MIME header line")
		}
		for _, b := range value {
			if !validHeaderValueByte(b) {
				return errors.New("malformed MIME header line")
			}
		}
		for len(value) > 0 && (value[0] == ' ' || value[0] == '\t') {
			value = value[1:]
		}
		if !canonical {
			continue
		}
		switch {
		case equalFold(key, "Content-Length"):
			if !haveLength {
				contentLength, haveLength = value, true
			} else if string(trimASCIISpace(value)) != string(trimASCIISpace(contentLength)) {
				return errors.New("multiple Content-Length headers")
			}
		case equalFold(key, "Transfer-Encoding"):
			if teCount == 0 {
				te = value
			}
			teCount++
		case equalFold(key, "Connection"):
			hasClose = hasClose || hasToken(value, "close")
			keepAlive = keepAlive || hasToken(value, "keep-alive")
		case equalFold(key, httpsvc.HeaderContentType):
			if r.contentType == nil && len(value) > 0 {
				r.contentType = shared(value, jsonContentType)
			}
		case equalFold(key, httpsvc.HeaderCache):
			if r.cache == nil && len(value) > 0 {
				switch string(value) {
				case "hit":
					r.cache = cacheHit
				case "miss":
					r.cache = cacheMiss
				default:
					r.cache = []string{string(value)}
				}
			}
		case equalFold(key, httpsvc.HeaderReplica):
			if r.replica == nil && len(value) > 0 {
				r.replica = shared(value, c.pool.replica)
			}
		}
	}

	// The framing, as net/http's readTransfer decides it.
	closing := major < 1 || hasClose || (major == 1 && minor == 0 && !keepAlive)
	atLeast11 := major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0
	chunked := false
	if teCount > 0 && atLeast11 {
		if teCount != 1 || !equalFold(te, "chunked") {
			return fmt.Errorf("unsupported transfer encoding %q", te)
		}
		chunked = true
	}
	length := int64(-1)
	if haveLength {
		if length, ok = parseContentLength(contentLength); !ok {
			return fmt.Errorf("bad Content-Length %q", contentLength)
		}
	}
	switch {
	case st < 200 || st == http.StatusNoContent || st == http.StatusNotModified:
		r.body = http.NoBody
	case chunked:
		c.chunked.n, c.chunked.crlf, c.chunked.done = 0, false, false
		r.body = &c.chunked
	case length == 0:
		r.body = http.NoBody
	case length > 0:
		c.fixed.n = length
		r.body = &c.fixed
	default:
		// Neither framing: the body runs to the connection's end.
		closing = true
		c.fixed.n = 1<<63 - 1
		r.body = &c.fixed
	}
	r.keep = !closing
	return nil
}

// shared returns common when value is its one value, else a fresh
// one-element slice holding value.
func shared(value []byte, common []string) []string {
	if string(value) == common[0] {
		return common
	}
	return []string{string(value)}
}

// forward writes up to max body bytes to w straight out of the
// connection's reader, waiting for at least one when none is buffered.
func (c *fleetConn) forward(w io.Writer, max int64) (int64, error) {
	if c.br.Buffered() == 0 {
		if _, err := c.br.Peek(1); err != nil {
			return 0, err
		}
	}
	buf, _ := c.br.Peek(int(min(int64(c.br.Buffered()), max)))
	n, err := w.Write(buf)
	c.br.Discard(n)
	return int64(n), err
}

// fixedBody reads a body of known length, or, at the largest length,
// one that runs to the connection's end.
type fixedBody struct {
	c *fleetConn
	n int64 // bytes left
}

func (b *fixedBody) toEOF() bool { return b.n == 1<<63-1 }

// Read implements io.Reader.
func (b *fixedBody) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.c.br.Read(p)
	if !b.toEOF() {
		b.n -= int64(n)
	}
	return n, b.err(err)
}

// WriteTo implements io.WriterTo, so io.Copy relays the body with no
// buffer of its own.
func (b *fixedBody) WriteTo(w io.Writer) (written int64, err error) {
	for b.n > 0 {
		n, err := b.c.forward(w, b.n)
		written += n
		if !b.toEOF() {
			b.n -= n
		}
		if err != nil {
			if err = b.err(err); err == io.EOF {
				err = nil
			}
			return written, err
		}
	}
	return written, nil
}

// err maps a read error: the end of a body that runs to the
// connection's end is its end, the end of any other is unexpected.
func (b *fixedBody) err(err error) error {
	switch {
	case err == nil:
		return nil
	case err == io.EOF && b.toEOF():
		return io.EOF
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	}
	return b.c.cause(err)
}

// chunkedBody reads a chunked body: chunk-size lines as net/http
// reads them, the trailer read and dropped.
type chunkedBody struct {
	c    *fleetConn
	n    int64 // bytes left in the current chunk
	crlf bool  // a chunk's data ended; its CRLF is next
	done bool
}

// next reads up to the next chunk's data, or to the end of the body.
func (b *chunkedBody) next() error {
	br := b.c.br
	if b.crlf {
		p, err := br.Peek(2)
		if err != nil {
			return err
		}
		if p[0] != '\r' || p[1] != '\n' {
			return errors.New("malformed chunked encoding")
		}
		br.Discard(2)
		b.crlf = false
	}
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			err = errors.New("chunk header line too long")
		}
		return err
	}
	if len(line) >= connBufSize {
		return errors.New("chunk header line too long")
	}
	for len(line) > 0 && isASCIISpace(line[len(line)-1]) {
		line = line[:len(line)-1]
	}
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	n, err := parseHexUint(line)
	if err != nil {
		return err
	}
	if n >= 1<<63 {
		return errors.New("http chunk length too large")
	}
	if n > 0 {
		b.n = int64(n)
		return nil
	}
	// The last chunk: the trailer runs to a blank line.
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err == bufio.ErrBufferFull {
				err = errors.New("trailer line too long")
			}
			return err
		}
		if len(line) == 1 || len(line) == 2 && line[0] == '\r' {
			b.done = true
			return io.EOF
		}
	}
}

// advance moves to the next chunk's data, mapping the read errors.
func (b *chunkedBody) advance() error {
	if b.done {
		return io.EOF
	}
	err := b.next()
	switch {
	case err == nil || err == io.EOF && b.done:
		return err
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	}
	return b.c.cause(err)
}

// Read implements io.Reader.
func (b *chunkedBody) Read(p []byte) (int, error) {
	for b.n == 0 {
		if err := b.advance(); err != nil {
			return 0, err
		}
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.c.br.Read(p)
	if b.n -= int64(n); b.n == 0 {
		b.crlf = true
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		err = b.c.cause(err)
	}
	return n, err
}

// WriteTo implements io.WriterTo.
func (b *chunkedBody) WriteTo(w io.Writer) (written int64, err error) {
	for {
		for b.n == 0 {
			if err := b.advance(); err == io.EOF {
				return written, nil
			} else if err != nil {
				return written, err
			}
		}
		n, err := b.c.forward(w, b.n)
		written += n
		if b.n -= n; b.n == 0 {
			b.crlf = true
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return written, b.c.cause(err)
		}
	}
}

// parseHexUint reads a chunk size as net/http does: 1 to 16 hex digits.
func parseHexUint(v []byte) (uint64, error) {
	if len(v) == 0 {
		return 0, errors.New("empty hex number for chunk length")
	}
	var n uint64
	for i, b := range v {
		switch {
		case '0' <= b && b <= '9':
			b -= '0'
		case 'a' <= b && b <= 'f':
			b = b - 'a' + 10
		case 'A' <= b && b <= 'F':
			b = b - 'A' + 10
		default:
			return 0, errors.New("invalid byte in chunk length")
		}
		if i == 16 {
			return 0, errors.New("http chunk length too large")
		}
		n = n<<4 | uint64(b)
	}
	return n, nil
}

// parseContentLength reads a Content-Length value as net/http does:
// decimal digits, below 2^63, surrounding white space ignored.
func parseContentLength(v []byte) (int64, bool) {
	v = trimASCIISpace(v)
	if len(v) == 0 {
		return 0, false
	}
	var n uint64
	for _, b := range v {
		if b < '0' || b > '9' {
			return 0, false
		}
		if n > (1<<63-1-uint64(b-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(b-'0')
	}
	return int64(n), true
}

// headerKey checks a header key as textproto does: ok when every byte
// is a token byte or a space, canonical (matchable by name) when none
// is a space.
func headerKey(k []byte) (canonical, ok bool) {
	if len(k) == 0 {
		return false, false
	}
	canonical = true
	for _, b := range k {
		switch {
		case validHeaderFieldByte(b):
		case b == ' ':
			canonical = false
		default:
			return false, false
		}
	}
	return canonical, true
}

// validHeaderFieldByte reports whether b may appear in a header key: an
// RFC 7230 tchar.
func validHeaderFieldByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}

// validHeaderValueByte reports whether b may appear in a header value:
// a visible character, a space, a tab or obs-text.
func validHeaderValueByte(b byte) bool {
	return b >= 0x80 || b >= 0x20 && b != 0x7f || b == '\t'
}

// equalFold is strings.EqualFold for ASCII.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// hasToken reports whether a comma-separated header value lists token,
// ignoring ASCII case.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		elem := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			elem, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if equalFold(trimSpaceTab(elem), token) {
			return true
		}
	}
	return false
}

// trimSpaceTab trims spaces and tabs from both ends, as textproto trims
// a header line.
func trimSpaceTab(s []byte) []byte {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// trimASCIISpace trims spaces, tabs, CRs and LFs from both ends.
func trimASCIISpace(s []byte) []byte {
	for len(s) > 0 && isASCIISpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isASCIISpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

func isASCIISpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

// statusCode reads a 3-byte status code as strconv.Atoi reads it, a
// negative one refused, as net/http.ReadResponse reads one.
func statusCode(b []byte) (int, bool) {
	neg := b[0] == '-'
	if neg || b[0] == '+' {
		b = b[1:]
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, !neg || n == 0
}

// httpVersion reads an HTTP-version as net/http.ParseHTTPVersion does.
func httpVersion(v []byte) (major, minor int, ok bool) {
	if len(v) != len("HTTP/X.Y") || string(v[:5]) != "HTTP/" || v[6] != '.' || !isDigit(v[5]) || !isDigit(v[7]) {
		return 0, 0, false
	}
	return int(v[5] - '0'), int(v[7] - '0'), true
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }
