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
	"strings"
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
	c.idle.bind(nc)
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
	idle    idleCheck

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
// back, which a fresh connection may retry; c is closed then. A parked
// connection on which bytes or the replica's close arrived while it
// sat idle is stale before anything is written: those bytes answer no
// request this exchange could send.
func (c *fleetConn) exchange(ctx context.Context, deadline time.Time, req *fleetRequest) (resp *response, stale bool, err error) {
	reused := !c.idleAt.IsZero()
	c.nc.SetDeadline(deadline)
	if reused && c.idle.unsolicited() {
		c.nc.Close()
		return nil, true, errors.New("replica wrote to or closed an idle connection")
	}
	c.ctx = ctx
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

// finish ends the exchange: the connection is parked when keep holds,
// the context did not abort it and its reader holds nothing past the
// answer, and closed otherwise.
func (c *fleetConn) finish(keep bool) {
	if c.stop != nil {
		if !c.stop() {
			keep = false // abort ran or is running
		}
		c.stop = nil
	}
	c.ctx = nil
	if keep && !c.aborted.Load() && c.br.Buffered() == 0 {
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

// readAnswer reads the answer's head into c.resp and sets up its body
// reader. It reads only the dialect a replica's net/http server writes
// to the gateway's requests (see the package documentation,
// "Transport") and refuses anything else as a replica fault.
// FuzzReadReplicaResponse holds whatever it accepts to
// net/http.ReadResponse.
func (c *fleetConn) readAnswer() error {
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
	// "HTTP/1.1 ddd", then a reason phrase or nothing. The gateway sends
	// no Expect, so a status below 200 is a fault too.
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || len(line) > 12 && line[12] != ' ' ||
		!isDigit(line[9]) || !isDigit(line[10]) || !isDigit(line[11]) {
		return errors.New("malformed HTTP status line")
	}
	st := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	if st < 200 {
		return fmt.Errorf("replica answered status %d", st)
	}

	r := &c.resp
	*r = response{status: st, c: c}
	length := int64(-1)
	var chunked, closing bool
	for len(head) > 1 { // the last line is the blank one
		nl := bytes.IndexByte(head, '\n')
		line := head[:nl]
		head = head[nl+1:]
		colon := bytes.IndexByte(line, ':')
		if colon < 0 || !isToken(line[:colon]) {
			return errors.New("malformed MIME header line")
		}
		key, value := line[:colon], trimSpaceTab(line[colon+1:])
		for _, b := range value {
			if !validHeaderValueByte(b) {
				return errors.New("malformed MIME header line")
			}
		}
		var err error
		switch {
		case equalFold(key, "Content-Length"):
			if length >= 0 {
				return errors.New("multiple Content-Length headers")
			}
			if length = parseContentLength(value); length < 0 {
				return fmt.Errorf("bad Content-Length %q", value)
			}
		case equalFold(key, "Transfer-Encoding"):
			if chunked || string(value) != "chunked" {
				return fmt.Errorf("unsupported transfer encoding %q", value)
			}
			chunked = true
		case equalFold(key, "Connection"):
			if closing || string(value) != "close" {
				return fmt.Errorf("unsupported Connection %q", value)
			}
			closing = true
		case equalFold(key, httpsvc.HeaderContentType):
			err = relayed(&r.contentType, value, jsonContentType)
		case equalFold(key, httpsvc.HeaderCache):
			err = relayed(&r.cache, value, cacheHit, cacheMiss)
		case equalFold(key, httpsvc.HeaderReplica):
			err = relayed(&r.replica, value, c.pool.replica)
		}
		if err != nil {
			return err
		}
	}

	switch {
	case chunked && length >= 0:
		return errors.New("both Content-Length and chunked")
	case st == http.StatusNoContent || st == http.StatusNotModified:
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
		// Neither framing: net/http's server writes the errors it
		// answers before a handler runs (431, 400, 501) this way, the
		// body running to the connection's end.
		closing = true
		c.fixed.n = 1<<63 - 1
		r.body = &c.fixed
	}
	r.keep = !closing
	return nil
}

// relayed sets a relayed header's value slice: one of commons when
// value is its one value, else a fresh one. A header the answer
// repeats, or sends empty, is refused.
func relayed(dst *[]string, value []byte, commons ...[]string) error {
	if *dst != nil || len(value) == 0 {
		return errors.New("repeated or empty relayed header")
	}
	for _, common := range commons {
		if string(value) == common[0] {
			*dst = common
			return nil
		}
	}
	*dst = []string{string(value)}
	return nil
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

// chunkedBody reads a chunked body as a replica's net/http server
// writes one: each chunk-size line is hex digits and CRLF, and the last
// chunk, "0", is followed by the body's closing CRLF alone, with no
// extension and no trailer.
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
		if err := readCRLF(br); err != nil {
			return err
		}
		b.crlf = false
	}
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return errMalformedChunked
	} else if err != nil {
		return err
	}
	n, ok := parseChunkSize(line)
	if !ok {
		return errMalformedChunked
	}
	if n > 0 {
		b.n = n
		return nil
	}
	if err := readCRLF(br); err != nil {
		return err
	}
	b.done = true
	return io.EOF
}

var errMalformedChunked = errors.New("malformed chunked encoding")

// readCRLF consumes the CRLF that ends a chunk's data or the body.
func readCRLF(br *bufio.Reader) error {
	p, err := br.Peek(2)
	if err != nil {
		return err
	}
	if p[0] != '\r' || p[1] != '\n' {
		return errMalformedChunked
	}
	br.Discard(2)
	return nil
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

// parseChunkSize reads a chunk-size line: 1 to 15 hex digits, then
// CRLF.
func parseChunkSize(line []byte) (int64, bool) {
	digits, ok := bytes.CutSuffix(line, []byte("\r\n"))
	if !ok || len(digits) == 0 || len(digits) > 15 {
		return 0, false
	}
	var n int64
	for _, b := range digits {
		switch {
		case '0' <= b && b <= '9':
			b -= '0'
		case 'a' <= b && b <= 'f':
			b = b - 'a' + 10
		case 'A' <= b && b <= 'F':
			b = b - 'A' + 10
		default:
			return 0, false
		}
		n = n<<4 | int64(b)
	}
	return n, true
}

// parseContentLength reads a Content-Length value: decimal digits,
// below 2^63; -1 when it is not one.
func parseContentLength(v []byte) int64 {
	if len(v) == 0 {
		return -1
	}
	var n int64
	for _, b := range v {
		if !isDigit(b) || n > (1<<63-1-int64(b-'0'))/10 {
			return -1
		}
		n = n*10 + int64(b-'0')
	}
	return n
}

// isToken reports whether k is a header key: one or more RFC 9110
// tchars.
func isToken(k []byte) bool {
	for _, b := range k {
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', isDigit(b):
		case strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0:
		default:
			return false
		}
	}
	return len(k) > 0
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

// trimSpaceTab trims spaces and tabs from both ends, as textproto trims
// a header value.
func trimSpaceTab(s []byte) []byte {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }
