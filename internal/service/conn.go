package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The service port's transport (docs/service.md, "The transport"): one
// goroutine per connection reads HTTP/1.1 requests into a reused
// *http.Request, calls Server.ServeHTTP with a ResponseWriter that
// buffers the whole reply, and sends the status line, headers and body
// in one Write. It carries atmd's routes, not any http.Handler: every
// reply is framed by a Content-Length, the one its handler declared or,
// for ServeMux's own 404, 405 and 301 replies, the buffered body's; no
// reply is chunked or has its type sniffed. Date, Connection and the
// request side follow net/http's server, stricter only in refusing
// with 400 a header folded over two lines, a duplicate Content-Length,
// Content-Length beside Transfer-Encoding, trailers and a CONNECT to an
// authority.

const (
	// readHeaderTimeout bounds the time from a request's first byte (on
	// a new connection: from the accept) to the end of its body: the
	// header block, the handler's body reads and the drain of a body the
	// handler left unread. An idle keep-alive connection has no deadline.
	readHeaderTimeout = 10 * time.Second
	// maxHeaderBytes bounds a request line plus header block: net/http's
	// DefaultMaxHeaderBytes and the 4 KiB of slop its server adds.
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096
	// maxDrainBytes is how much of a body its handler left unread is read
	// and discarded to keep the connection; past it the connection closes
	// (net/http's maxPostHandlerReadBytes).
	maxDrainBytes = 256 << 10
	// connReadBuffer holds a binary submit request, header and body, in
	// one read (net/http reads through 4 KiB).
	connReadBuffer = 16 << 10
	// lingerDelay is how long a connection closed with request bytes
	// still unread stays half-open, so the client reads the reply before
	// the kernel resets the connection (net/http's rstAvoidanceDelay).
	lingerDelay = 500 * time.Millisecond
	// maxInterned bounds each connection's table of header keys and
	// values it has turned into strings before.
	maxInterned = 64
)

// A connection's state, for Shutdown: idle between requests (and before
// the first), active from a request's first byte to its reply, closed
// by Shutdown while idle.
const (
	stateIdle int32 = iota
	stateActive
	stateClosed
)

// transport is the connection loop's bookkeeping: listeners, live
// connections and the shutdown flag.
type transport struct {
	h             http.Handler
	headerTimeout time.Duration // readHeaderTimeout; tests shorten it

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[*conn]struct{}
	drained chan struct{} // closed once shutting down with no connection left
	closing atomic.Bool
}

// Serve accepts connections on ln and serves each on a goroutine of its
// own until Shutdown, after which it returns http.ErrServerClosed. It
// closes ln when it returns.
func (s *Server) Serve(ln net.Listener) error { return s.tr.serve(ln) }

// Shutdown stops the listeners, closes every connection that is idle or
// has never sent a byte, and waits for each request in flight to be
// answered (with Connection: close) or for ctx to end.
func (s *Server) Shutdown(ctx context.Context) error { return s.tr.shutdown(ctx) }

func (t *transport) serve(ln net.Listener) error {
	defer ln.Close()
	t.mu.Lock()
	if t.closing.Load() {
		t.mu.Unlock()
		return http.ErrServerClosed
	}
	if t.lns == nil {
		t.lns = make(map[net.Listener]struct{})
		t.conns = make(map[*conn]struct{})
	}
	t.lns[ln] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.lns, ln)
		t.mu.Unlock()
	}()

	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if t.closing.Load() {
				return http.ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of file descriptors and the like: back off and retry,
			// as net/http does.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		delay = 0
		c := newConn(t, rwc)
		t.mu.Lock()
		closing := t.closing.Load()
		if !closing {
			t.conns[c] = struct{}{}
		}
		t.mu.Unlock()
		if closing {
			rwc.Close()
			return http.ErrServerClosed
		}
		go c.serve()
	}
}

func (t *transport) shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.closing.Store(true)
	for ln := range t.lns {
		ln.Close()
	}
	for c := range t.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			c.rwc.Close()
		}
	}
	if len(t.conns) == 0 {
		t.mu.Unlock()
		return nil
	}
	if t.drained == nil {
		t.drained = make(chan struct{})
	}
	drained := t.drained
	t.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (t *transport) untrack(c *conn) {
	t.mu.Lock()
	delete(t.conns, c)
	if t.drained != nil && len(t.conns) == 0 {
		close(t.drained)
		t.drained = nil
	}
	t.mu.Unlock()
}

// conn is one client connection and everything its requests reuse.
type conn struct {
	tr     *transport
	rwc    net.Conn
	br     *bufio.Reader
	remote string
	state  atomic.Int32

	req  http.Request
	url  url.URL
	body body
	w    response
	// wants10KeepAlive: an HTTP/1.0 request that asked for keep-alive.
	wants10KeepAlive bool

	hdr     http.Header
	vals    []string          // backing for hdr's one-value slices
	keys    map[string]string // header names as sent -> canonical
	strs    map[string]string // header values and methods as sent
	rawURI  string            // the last request-target, parsed into lastURL
	lastURL url.URL
	long    []byte // a header line longer than br's buffer
	hdrLeft int    // header bytes the request may still send

	out     bytes.Buffer // the reply on the wire
	dateSec int64
	date    string
}

func newConn(t *transport, rwc net.Conn) *conn {
	c := &conn{
		tr:   t,
		rwc:  rwc,
		br:   bufio.NewReaderSize(rwc, connReadBuffer),
		hdr:  make(http.Header),
		keys: make(map[string]string),
		strs: make(map[string]string),
	}
	if ra := rwc.RemoteAddr(); ra != nil {
		c.remote = ra.String()
	}
	c.body.c = c
	c.w.header = make(http.Header)
	return c
}

// serve runs the connection's requests in order until the client, an
// error or Shutdown ends it.
func (c *conn) serve() {
	defer func() {
		c.rwc.Close()
		c.tr.untrack(c)
	}()
	for first := true; ; first = false {
		if first {
			_ = c.rwc.SetReadDeadline(time.Now().Add(c.tr.headerTimeout))
		}
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.state.CompareAndSwap(stateIdle, stateActive) {
			return // Shutdown closed it while it waited
		}
		if !first {
			_ = c.rwc.SetReadDeadline(time.Now().Add(c.tr.headerTimeout))
		}
		if err := c.readRequest(); err != nil {
			c.refuse(err)
			return
		}
		c.w.reset(c.req.Method == http.MethodHead)
		if c.expectFailed() {
			c.w.header.Set("Connection", "close")
			c.w.WriteHeader(http.StatusExpectationFailed)
		} else if !c.handle() {
			return
		}
		if !c.reply() {
			return
		}
		c.state.Store(stateIdle)
		if c.tr.closing.Load() {
			return
		}
	}
}

// handle runs the handler. A handler that panics gets no reply and its
// connection closes; the panic is logged unless it is
// http.ErrAbortHandler, as net/http's server does.
func (c *conn) handle() (ok bool) {
	defer func() {
		if err := recover(); err != nil {
			if err != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("service: panic serving %s: %v\n%s", c.remote, err, buf)
			}
			ok = false
		}
	}()
	c.tr.h.ServeHTTP(&c.w, &c.req)
	return true
}

// requestError is a request refused before its handler: the status and
// the text net/http's server answers it with.
type requestError struct {
	code int
	text string // "" for the status line's text alone
}

func (e *requestError) Error() string { return fmt.Sprintf("%d %s", e.code, e.text) }

var (
	errBadRequest  = &requestError{code: http.StatusBadRequest}
	errTooLarge    = &requestError{code: http.StatusRequestHeaderFieldsTooLarge}
	errUnsupported = &requestError{code: http.StatusNotImplemented}
	errBadName     = &requestError{http.StatusBadRequest, "invalid header name"}
	errMissingHost = &requestError{http.StatusBadRequest, "missing required Host header"}
	errBadHost     = &requestError{http.StatusBadRequest, "malformed Host header"}
	errVersion     = &requestError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
)

// refuse answers a request readRequest refused, as net/http's server
// does, and the connection closes: a read error or timeout gets no
// reply.
func (c *conn) refuse(err error) {
	var re *requestError
	if !errors.As(err, &re) {
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			return
		}
		re = errBadRequest // the client stopped sending mid-request
	}
	const headers = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	status := strconv.Itoa(re.code) + " " + http.StatusText(re.code)
	var msg string
	switch {
	case re == errUnsupported:
		msg = "HTTP/1.1 " + status + headers + "Unsupported transfer encoding"
	case re.text != "":
		msg = "HTTP/1.1 " + status + ": " + re.text + headers + status + ": " + re.text
	default:
		msg = "HTTP/1.1 " + status + headers + status
	}
	_, _ = io.WriteString(c.rwc, msg)
	if re == errTooLarge {
		c.linger()
	}
}

// linger half-closes the connection and waits, so a client still
// sending reads the reply before the close resets the connection.
func (c *conn) linger() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	time.Sleep(lingerDelay)
}

// readLine returns the next line without its line end, valid until the
// next read. EOF mid-line is io.ErrUnexpectedEOF.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.long = append(c.long[:0], line...)
		for err == bufio.ErrBufferFull && len(c.long) <= c.hdrLeft {
			line, err = c.br.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if c.hdrLeft -= len(line); c.hdrLeft < 0 {
		return nil, errTooLarge
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readRequest parses the request line and header block into c.req and
// frames its body. Errors are a *requestError, io.ErrUnexpectedEOF or a
// read error.
func (c *conn) readRequest() error {
	c.hdrLeft = maxHeaderBytes
	line, err := c.readLine()
	if err != nil {
		return err
	}
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	uri, proto, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || len(method) == 0 || !allBytes(method, &tokenByte) {
		return errBadRequest
	}
	major, minor := 1, 1
	switch string(proto) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		minor = 0
	default:
		var ok bool
		if major, minor, ok = http.ParseHTTPVersion(string(proto)); !ok {
			return errBadRequest
		}
		if major != 1 {
			return errVersion
		}
	}
	if string(method) == http.MethodConnect && (len(uri) == 0 || uri[0] != '/') {
		return errBadRequest
	}
	if string(uri) != c.rawURI || c.rawURI == "" {
		u, err := url.ParseRequestURI(string(uri))
		if err != nil {
			return errBadRequest
		}
		c.rawURI, c.lastURL = string(uri), *u
	}
	c.url = c.lastURL
	c.req = http.Request{
		Method:     c.intern(method),
		URL:        &c.url,
		Proto:      c.intern(proto),
		ProtoMajor: major,
		ProtoMinor: minor,
		Header:     c.hdr,
		RequestURI: c.rawURI,
		RemoteAddr: c.remote,
	}
	if err := c.readHeader(); err != nil {
		return err
	}
	return c.frameBody()
}

// readHeader reads the header block into c.hdr, reusing its map and
// value slices, and checks it as net/http's server does.
func (c *conn) readHeader() error {
	h := c.hdr
	clear(h)
	c.vals = c.vals[:0]
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return errBadRequest // a folded line
		}
		k, v, ok := bytes.Cut(line, []byte{':'})
		if !ok {
			return errBadRequest
		}
		key, ok := c.canonicalKey(k)
		if !ok {
			if allBytes(k, &nameOrSpace) {
				return errBadName // the one bad name textproto lets through
			}
			return errBadRequest
		}
		v = bytes.Trim(v, " \t")
		for _, b := range v {
			if b < ' ' && b != '\t' || b == 0x7f {
				return errBadRequest
			}
		}
		if vv, ok := h[key]; ok {
			h[key] = append(vv, c.intern(v))
			continue
		}
		c.vals = append(c.vals, c.intern(v))
		n := len(c.vals)
		h[key] = c.vals[n-1 : n : n]
	}
	r := &c.req
	hosts := h["Host"]
	if len(hosts) > 1 {
		return errBadRequest
	}
	if r.ProtoMinor >= 1 && len(hosts) == 0 {
		return errMissingHost
	}
	if len(hosts) == 1 && !allBytes(hosts[0], &hostByte) {
		return errBadHost
	}
	if r.Host = r.URL.Host; r.Host == "" && len(hosts) == 1 {
		r.Host = hosts[0]
	}
	delete(h, "Host")
	if p := h["Pragma"]; len(p) > 0 && p[0] == "no-cache" {
		if _, ok := h["Cache-Control"]; !ok {
			h["Cache-Control"] = []string{"no-cache"}
		}
	}
	conn := h["Connection"]
	if r.ProtoMinor == 0 {
		c.wants10KeepAlive = hasToken(conn, "keep-alive")
		r.Close = hasToken(conn, "close") || !c.wants10KeepAlive
	} else {
		c.wants10KeepAlive = false
		r.Close = hasToken(conn, "close")
	}
	return nil
}

// frameBody sets the request's body from Transfer-Encoding and
// Content-Length.
func (c *conn) frameBody() error {
	r, h := &c.req, c.hdr
	chunked := false
	if te, ok := h["Transfer-Encoding"]; ok {
		delete(h, "Transfer-Encoding")
		if r.ProtoMinor >= 1 { // HTTP/1.0 ignores it, as net/http does
			if len(te) != 1 || !strings.EqualFold(te[0], "chunked") {
				return errUnsupported
			}
			chunked = true
		}
	}
	cls := h["Content-Length"]
	if len(cls) > 1 || chunked && (len(cls) > 0 || len(h["Trailer"]) > 0) {
		return errBadRequest
	}
	c.body.reset()
	switch {
	case chunked:
		r.ContentLength = -1
		r.TransferEncoding = chunkedEncoding
		c.body.chunked = httputil.NewChunkedReader(c.br)
		r.Body = &c.body
	case len(cls) == 1:
		n, ok := parseContentLength(cls[0])
		if !ok {
			return errBadRequest
		}
		r.ContentLength = n
		r.Body = http.NoBody
		if n > 0 {
			c.body.remain = n
			r.Body = &c.body
		}
	default:
		r.Body = http.NoBody
	}
	return nil
}

var chunkedEncoding = []string{"chunked"}

// expectFailed reports a request whose Expect header the loop cannot
// meet (answered 417, as net/http does); a 100-continue with a body
// arms the body to send "100 Continue" at its first read.
func (c *conn) expectFailed() bool {
	ex := c.hdr["Expect"]
	if len(ex) == 0 || ex[0] == "" {
		return false
	}
	if !hasToken(ex[:1], "100-continue") {
		return true
	}
	c.body.expect = c.req.ProtoMinor >= 1 && c.req.ContentLength != 0
	return false
}

// canonicalKey is http.CanonicalHeaderKey of a header name, which must
// be a token; names seen before on the connection cost no allocation.
func (c *conn) canonicalKey(k []byte) (string, bool) {
	if s, ok := c.keys[string(k)]; ok {
		return s, true
	}
	if len(k) == 0 || !allBytes(k, &tokenByte) {
		return "", false
	}
	s := http.CanonicalHeaderKey(string(k))
	if len(c.keys) < maxInterned {
		c.keys[string(k)] = s
	}
	return s, true
}

// intern returns b as a string, shared with earlier requests on the
// connection that sent the same bytes.
func (c *conn) intern(b []byte) string {
	if s, ok := c.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.strs) < maxInterned && len(b) <= 256 {
		c.strs[s] = s
	}
	return s
}

// parseContentLength accepts what net/http does: decimal digits that
// fit in 63 bits.
func parseContentLength(s string) (int64, bool) {
	n, err := strconv.ParseUint(s, 10, 63)
	return int64(n), err == nil
}

// hasToken reports whether any comma-separated element of vs is tok,
// case-insensitively.
func hasToken(vs []string, tok string) bool {
	for _, v := range vs {
		for v != "" {
			var el string
			el, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.Trim(el, " \t"), tok) {
				return true
			}
		}
	}
	return false
}

func allBytes[T string | []byte](b T, set *[256]bool) bool {
	for i := 0; i < len(b); i++ {
		if !set[b[i]] {
			return false
		}
	}
	return true
}

// tokenByte marks the bytes of an RFC 7230 token (methods and header
// names), nameOrSpace those and a space, hostByte the bytes net/http
// allows in a Host header.
var (
	tokenByte   = byteSet("!#$%&'*+-.^_`|~")
	nameOrSpace = byteSet("!#$%&'*+-.^_`|~ ")
	hostByte    = byteSet("!$%&'()*+,-.:;=[]_~")
)

func byteSet(punct string) (set [256]bool) {
	for _, s := range []string{punct, "0123456789", "abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"} {
		for i := 0; i < len(s); i++ {
			set[s[i]] = true
		}
	}
	return set
}

// body is a request body: a Content-Length's bytes or a chunked stream,
// read from the connection's buffer.
type body struct {
	c       *conn
	remain  int64     // a Content-Length body's unread bytes
	chunked io.Reader // non-nil for a chunked body
	expect  bool      // the request asked for 100-continue
	sent100 bool      // and "100 Continue" has gone out
	eof     bool
	closed  bool
	err     error
}

func (b *body) reset() {
	*b = body{c: b.c}
}

func (b *body) Read(p []byte) (int, error) {
	switch {
	case b.closed:
		return 0, http.ErrBodyReadAfterClose
	case b.err != nil:
		return 0, b.err
	case b.eof:
		return 0, io.EOF
	}
	if b.expect && !b.sent100 {
		b.sent100 = true
		_, _ = io.WriteString(b.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n")
	}
	var n int
	var err error
	if b.chunked != nil {
		n, err = b.chunked.Read(p)
		if err == io.EOF {
			// No trailers: the last chunk is followed by the blank line.
			if end, _ := b.c.br.Peek(2); string(end) == "\r\n" {
				_, _ = b.c.br.Discard(2)
			} else {
				err = errors.New("service: trailer after chunked body")
			}
		}
	} else {
		if int64(len(p)) > b.remain {
			p = p[:b.remain]
		}
		n, err = b.c.br.Read(p)
		b.remain -= int64(n)
		switch {
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		case err == nil && b.remain == 0:
			err = io.EOF
		}
	}
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		b.err = err
	}
	return n, err
}

func (b *body) Close() error {
	b.closed = true
	return nil
}

// response is the ResponseWriter: the status, header and body of the
// reply, buffered whole until the handler returns. The header as it
// stands then is the one sent.
type response struct {
	header http.Header
	status int
	body   []byte
	head   bool
}

func (w *response) reset(head bool) {
	clear(w.header)
	w.status, w.body, w.head = 0, w.body[:0], head
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status == 0 {
		w.status = code
	}
}

func (w *response) Write(p []byte) (int, error)       { return appendBody(w, p) }
func (w *response) WriteString(s string) (int, error) { return appendBody(w, s) }

func appendBody[T string | []byte](w *response, p T) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func first(vs []string) string {
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// reply sends the buffered reply in one Write, framed by its
// Content-Length, and reports whether the connection serves another
// request. A body its handler left unread is drained up to
// maxDrainBytes first; past that the connection closes.
func (c *conn) reply() (keep bool) {
	w, r := &c.w, &c.req
	if w.status == 0 {
		w.status = http.StatusOK
	}
	h := w.header
	is11 := r.ProtoMinor >= 1
	closeAfter, linger := false, false
	var connection string // a Connection header the loop adds

	if c.wants10KeepAlive {
		if _, ok := h["Connection"]; !ok {
			connection = "keep-alive"
		}
	} else if !is11 || r.Close {
		closeAfter = true
	}
	if first(h["Connection"]) == "close" || c.tr.closing.Load() {
		closeAfter = true
	}
	if c.body.expect && !c.body.eof {
		// The client waits for 100 Continue, or is mid-body: what
		// follows on the wire is not known to be a request.
		closeAfter = true
	}
	if r.ContentLength != 0 && !closeAfter && !c.body.expect {
		tooBig := false
		switch {
		case c.body.eof:
		case c.body.closed:
			closeAfter = true
		case c.body.chunked == nil && c.body.remain >= maxDrainBytes:
			tooBig = true
		default:
			switch _, err := io.CopyN(io.Discard, &c.body, maxDrainBytes+1); err {
			case nil:
				tooBig = true
			case io.EOF:
			default:
				closeAfter = true
			}
		}
		if tooBig {
			closeAfter, linger = true, true
			delete(h, "Connection")
			connection = "close"
		}
	}
	// The request is read: the next one waits idle, with no deadline.
	_ = c.rwc.SetReadDeadline(time.Time{})

	delete(h, "Transfer-Encoding")
	if closeAfter && (!hasToken(h["Connection"], "close") || c.tr.closing.Load()) {
		delete(h, "Connection")
		if is11 {
			connection = "close"
		}
	}

	b := &c.out
	b.Reset()
	writeStatusLine(b, is11, w.status)
	_ = h.Write(b) // in key order, as net/http writes it; a bytes.Buffer does not fail
	if _, ok := h["Date"]; !ok {
		headerLine(b, "Date", c.httpDate())
	}
	// atmd's handlers declare their length, and it is sent as declared;
	// ServeMux's own replies get the buffered body's.
	if _, ok := h["Content-Length"]; !ok {
		b.WriteString("Content-Length: ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(len(w.body)), 10))
		b.WriteString("\r\n")
	}
	if connection != "" {
		headerLine(b, "Connection", connection)
	}
	b.WriteString("\r\n")
	if !w.head {
		b.Write(w.body)
	}
	if _, err := c.rwc.Write(b.Bytes()); err != nil {
		return false
	}
	if linger {
		c.linger()
	}
	return !closeAfter
}

// writeStatusLine writes an HTTP/1.x status line as net/http writes it.
func writeStatusLine(b *bytes.Buffer, is11 bool, code int) {
	if is11 {
		b.WriteString("HTTP/1.1 ")
	} else {
		b.WriteString("HTTP/1.0 ")
	}
	if text := http.StatusText(code); text != "" {
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(code), 10))
		b.WriteByte(' ')
		b.WriteString(text)
	} else {
		fmt.Fprintf(b, "%03d status code %d", code, code)
	}
	b.WriteString("\r\n")
}

func headerLine(b *bytes.Buffer, key, value string) {
	b.WriteString(key)
	b.WriteString(": ")
	b.WriteString(value)
	b.WriteString("\r\n")
}

// httpDate is the Date header's value for now, formatted once a second.
func (c *conn) httpDate() string {
	now := time.Now()
	if s := now.Unix(); s != c.dateSec {
		c.dateSec = s
		c.date = now.UTC().Format(http.TimeFormat)
	}
	return c.date
}
