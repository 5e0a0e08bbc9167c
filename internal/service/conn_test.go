package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/core"
)

// newStaticServer is a Server over a fresh one-worker Static engine, so
// two of them given the same requests answer byte for byte alike.
func newStaticServer(t *testing.T) *Server {
	t.Helper()
	return NewServer(newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeStatic})}))
}

// serveLoopback runs tr's loop on a loopback listener until the test
// ends and returns the address.
func serveLoopback(t *testing.T, tr *transport) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tr.serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := tr.shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// exchange writes req on a fresh connection to addr and returns every
// byte the server sends until it closes the connection.
func exchange(t *testing.T, addr, req string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = out.ReadFrom(c)
	if err != nil && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("%q: %v after %q", req, err, out.String())
	}
	return out.String()
}

var dateLine = regexp.MustCompile("Date: [^\r]*\r\n")

// TestServeMatchesNetHTTP sends the same requests through
// httptest.NewServer and through Serve, each over its own Static engine
// with the same history, and requires the same status, header set (Date
// excepted), length and body: through a Go client on kept-alive
// connections, the length less the volatile /metrics lines it counts,
// and as raw bytes for what a client library would not send — each
// reply compared byte for byte with its Date line removed.
func TestServeMatchesNetHTTP(t *testing.T) {
	ref := httptest.NewServer(newStaticServer(t))
	defer ref.Close()
	loop := newStaticServer(t)
	loopURL := "http://" + serveLoopback(t, &loop.tr)

	client := &http.Client{
		Timeout:       10 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	binBody, err := EncodeBinaryTasks([]Task{
		{Kind: "lu", Input: Input(mustKind(t, "lu"), 3, 1)},
		{Kind: "stencil", Input: Input(mustKind(t, "stencil"), 4, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	volatile := regexp.MustCompile(`(?m)^(atmd_uptime_seconds|atmd_(submit|lookup)_seconds_(bucket|sum)).*\n`)
	type reply struct {
		status int
		header http.Header
		body   string
		cl     int64
		te     []string
		close  bool
	}
	do := func(base, method, path, ctype string, body []byte) reply {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: body: %v", method, path, err)
		}
		resp.Header.Del("Date")
		// The declared length is compared as cl, less the bytes of the
		// volatile lines /metrics counts in it.
		resp.Header.Del("Content-Length")
		kept := volatile.ReplaceAllString(string(b), "")
		return reply{resp.StatusCode, resp.Header, kept, resp.ContentLength - int64(len(b)-len(kept)), resp.TransferEncoding, resp.Close}
	}
	for _, c := range []struct {
		method, path, ctype string
		body                []byte
	}{
		{"POST", "/v1/submit", "application/json", []byte(`{"tasks":[{"kind":"lu","key":5,"seed":2}]}`)},
		{"POST", "/v1/submit", "application/json", []byte(`{"tasks":[{"kind":"lu","key":5,"seed":2}]}`)},
		{"POST", "/v1/submit", binaryContentType, binBody},
		{"POST", "/v1/submit", binaryContentType, binBody},
		{"POST", "/v1/submit", "application/json", []byte(`{"tasks":[{"kind":"nope"}]}`)},
		{"POST", "/v1/submit", "application/json", []byte(`{"tasks":`)},
		{"GET", "/v1/lookup?kind=lu&key=5&seed=2", "", nil},
		{"GET", "/v1/lookup?kind=lu&key=6&seed=2", "", nil},
		{"GET", "/v1/lookup?kind=lu", "", nil},
		{"POST", "/v1/snapshot", "", nil},
		{"GET", "/v1/stats", "", nil},
		{"HEAD", "/v1/stats", "", nil},
		{"GET", "/healthz", "", nil},
		{"HEAD", "/healthz", "", nil},
		{"GET", "/nothing", "", nil},
		{"DELETE", "/v1/submit", "", nil},
		{"GET", "/v1//stats", "", nil},
		{"POST", "/healthz", "text/plain", []byte("unread")},
		{"POST", "/healthz", "text/plain", bytes.Repeat([]byte("x"), 300<<10)},
		{"GET", "/metrics", "", nil},
	} {
		want := do(ref.URL, c.method, c.path, c.ctype, c.body)
		got := do(loopURL, c.method, c.path, c.ctype, c.body)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s:\n loop     %+v\n net/http %+v", c.method, c.path, got, want)
		}
	}

	refAddr := ref.Listener.Addr().String()
	loopAddr := strings.TrimPrefix(loopURL, "http://")
	const host = "Host: x\r\n"
	for _, raw := range []string{
		"GET /healthz HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n",
		// Pipelined, answered in order; the last one closes.
		"GET /healthz HTTP/1.1\r\n" + host + "\r\nGET /nothing HTTP/1.1\r\n" + host + "\r\n" +
			"GET /v1/lookup?kind=lu&key=5&seed=2 HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n",
		// HTTP/1.0 closes after the reply unless it asked for keep-alive.
		"GET /healthz HTTP/1.0\r\n\r\n",
		"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n",
		"HEAD /v1/stats HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n",
		// A small body the handler left unread is drained and the
		// connection serves on.
		"POST /healthz HTTP/1.1\r\n" + host + "Content-Length: 5\r\n\r\nhello" +
			"GET /healthz HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n",
		// A chunked body.
		"POST /v1/submit HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n" +
			"10\r\n{\"tasks\":[{\"kind\r\n1a\r\n\":\"lu\",\"key\":5,\"seed\":2}]}\r\n0\r\n\r\n",
		// Refused before any handler runs.
		"GARBAGE\r\n\r\n",
		"GET / HTTP/1.1\r\n" + host + "No colon here\r\n\r\n",
		"GET / HTTP/1.1\r\nBad\x01Name: v\r\n\r\n",
		"GET / HTTP/1.1\r\n" + host + "X-A : 1\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nHost: a b\r\n\r\n",
		"GET / HTTP/2.0\r\n" + host + "\r\n",
		"POST /v1/submit HTTP/1.1\r\n" + host + "Transfer-Encoding: gzip\r\n\r\n",
		"POST /v1/submit HTTP/1.1\r\n" + host + "Content-Length: 1\r\nContent-Length: 2\r\n\r\nab",
		"POST /v1/submit HTTP/1.1\r\n" + host + "Content-Length: x\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "Expect: teapot\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "X-Big: " + strings.Repeat("a", 1<<20+8192) + "\r\n\r\n",
	} {
		want := dateLine.ReplaceAllString(exchange(t, refAddr, raw), "")
		got := dateLine.ReplaceAllString(exchange(t, loopAddr, raw), "")
		if got != want {
			t.Errorf("%.80q:\n loop     %.300q\n net/http %.300q", raw, got, want)
		}
	}

	// Expect: 100-continue: the interim reply comes before the body is
	// sent, then the reply.
	continued := func(addr string) string {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		body := `{"tasks":[{"kind":"lu","key":7,"seed":2}]}`
		fmt.Fprintf(c, "POST /v1/submit HTTP/1.1\r\n%sExpect: 100-continue\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", host, len(body))
		interim := make([]byte, len("HTTP/1.1 100 Continue\r\n\r\n"))
		if _, err := io.ReadFull(c, interim); err != nil || string(interim) != "HTTP/1.1 100 Continue\r\n\r\n" {
			t.Fatalf("interim reply %q, %v", interim, err)
		}
		io.WriteString(c, body)
		rest, _ := io.ReadAll(c)
		return dateLine.ReplaceAllString(string(rest), "")
	}
	if got, want := continued(loopAddr), continued(refAddr); got != want {
		t.Errorf("100-continue:\n loop     %.300q\n net/http %.300q", got, want)
	}
}

// serveServer runs s.Serve on a loopback listener until the test ends
// and returns the address.
func serveServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// TestServeFramesEveryRoute: every reply on atmd's port — each route's
// 200s and JSON errors, and ServeMux's own 404, 405 and 301 — carries a
// Content-Type and exactly one Content-Length, equal to the body it
// sends (for HEAD, to the body the same GET sent), and none is chunked.
func TestServeFramesEveryRoute(t *testing.T) {
	memo := serveServer(t, NewServer(newTestEngine(t, Config{
		Memo: core.New(core.Config{Mode: core.ModeStatic}),
		Save: func() error { return nil },
	})))
	// A baseline engine with no save (409) and a one-task watermark,
	// which sheds any two-task submit (429).
	bare := serveServer(t, NewServer(newTestEngine(t, Config{Backlog: 1})))
	binBody, err := EncodeBinaryTasks([]Task{{Kind: "lu", Input: Input(mustKind(t, "lu"), 3, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	lu := `{"tasks":[{"kind":"lu","key":5,"seed":2}]}`
	sent := map[string]int{} // path -> body length its GET sent
	for _, c := range []struct {
		addr, method, path, ctype, body string
		code                            int
	}{
		{memo, "POST", "/v1/submit", "application/json", lu, http.StatusOK},
		{memo, "POST", "/v1/submit", binaryContentType, string(binBody), http.StatusOK},
		{memo, "GET", "/v1/lookup?kind=lu&key=5&seed=2", "", "", http.StatusOK},
		{memo, "GET", "/v1/stats", "", "", http.StatusOK},
		{memo, "HEAD", "/v1/stats", "", "", http.StatusOK},
		{memo, "GET", "/metrics", "", "", http.StatusOK},
		{memo, "GET", "/healthz", "", "", http.StatusOK},
		{memo, "HEAD", "/healthz", "", "", http.StatusOK},
		{memo, "POST", "/v1/snapshot", "", "", http.StatusOK},
		{memo, "POST", "/v1/submit", "application/json", `{"tasks":[{"kind":"nope"}]}`, http.StatusBadRequest},
		{bare, "POST", "/v1/snapshot", "", "", http.StatusConflict},
		{bare, "POST", "/v1/submit", "application/json", `{"tasks":[{"kind":"lu","key":1},{"kind":"lu","key":2}]}`, http.StatusTooManyRequests},
		{memo, "GET", "/nothing", "", "", http.StatusNotFound},
		{memo, "DELETE", "/v1/submit", "", "", http.StatusMethodNotAllowed},
		{memo, "POST", "/healthz", "text/plain", "unread", http.StatusMethodNotAllowed},
		{memo, "GET", "/v1//stats", "", "", http.StatusMovedPermanently},
	} {
		name := c.method + " " + c.path
		req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %d\r\n", c.method, c.path, len(c.body))
		if c.ctype != "" {
			req += "Content-Type: " + c.ctype + "\r\n"
		}
		raw := exchange(t, c.addr, req+"\r\n"+c.body)
		resp, err := http.ReadResponse(bufio.NewReader(strings.NewReader(raw)), &http.Request{Method: c.method})
		if err != nil {
			t.Fatalf("%s: %v in %q", name, err, raw)
		}
		_, body, _ := strings.Cut(raw, "\r\n\r\n")
		cls := resp.Header["Content-Length"]
		switch {
		case resp.StatusCode != c.code:
			t.Errorf("%s: HTTP %d, want %d", name, resp.StatusCode, c.code)
		case resp.Header.Get("Content-Type") == "":
			t.Errorf("%s: no Content-Type", name)
		case len(resp.TransferEncoding) > 0 || resp.Header["Transfer-Encoding"] != nil:
			t.Errorf("%s: Transfer-Encoding %q", name, resp.TransferEncoding)
		case len(cls) != 1:
			t.Errorf("%s: Content-Length %q, want one", name, cls)
		case c.method == "HEAD" && (body != "" || cls[0] != strconv.Itoa(sent[c.path])):
			t.Errorf("%s: Content-Length %s and %d body bytes, want %d and none", name, cls[0], len(body), sent[c.path])
		case c.method != "HEAD" && cls[0] != strconv.Itoa(len(body)):
			t.Errorf("%s: Content-Length %s, sent %d body bytes", name, cls[0], len(body))
		}
		sent[c.path] = len(body)
	}
}

// TestServeRefusals: what the loop refuses that net/http's server
// would pass to a handler — framing a request could be smuggled through
// — gets 400 and a closed connection, and nothing reaches the handler.
func TestServeRefusals(t *testing.T) {
	var reached atomic.Int32
	tr := &transport{headerTimeout: readHeaderTimeout, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { reached.Add(1) })}
	addr := serveLoopback(t, tr)
	const bad = "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n400 Bad Request"
	for name, raw := range map[string]string{
		"both framings":          "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"same length twice":      "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
		"folded header":          "GET / HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n 2\r\n\r\n",
		"chunked with a trailer": "POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTrailer: X-T\r\n\r\n0\r\nX-T: 1\r\n\r\n",
		"CONNECT authority":      "CONNECT example.com:443 HTTP/1.1\r\nHost: example.com:443\r\n\r\n",
		"two Host headers":       "GET / HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n",
	} {
		if got := exchange(t, addr, raw); got != bad {
			t.Errorf("%s: got %q, want a 400 and the connection closed", name, got)
		}
	}
	if n := reached.Load(); n != 0 {
		t.Errorf("%d refused requests reached the handler", n)
	}
}

// TestServePipelinedInOrder writes many requests, with and without
// bodies, in one write on one connection and requires one reply each,
// in order.
func TestServePipelinedInOrder(t *testing.T) {
	tr := &transport{headerTimeout: readHeaderTimeout, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %s", r.URL.Path, b)
	})}
	addr := serveLoopback(t, tr)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	const n = 200
	var reqs bytes.Buffer
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&reqs, "GET /r%d HTTP/1.1\r\nHost: x\r\n\r\n", i)
		case 1:
			body := strings.Repeat("b", i)
			fmt.Fprintf(&reqs, "POST /r%d HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", i, len(body), body)
		default:
			fmt.Fprintf(&reqs, "POST /r%d HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nc\r\n0\r\n\r\n", i)
		}
	}
	go c.Write(reqs.Bytes())
	br := bufio.NewReader(c)
	for i := 0; i < n; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		b, _ := io.ReadAll(resp.Body)
		want := fmt.Sprintf("/r%d ", i)
		switch i % 3 {
		case 1:
			want += strings.Repeat("b", i)
		case 2:
			want += "c"
		}
		if resp.StatusCode != http.StatusOK || string(b) != want {
			t.Fatalf("reply %d: HTTP %d %q, want %q", i, resp.StatusCode, b, want)
		}
	}
}

// TestShutdownClosesIdleFinishesActive: Shutdown closes a connection
// that never sent a byte and one idle between requests at once, lets
// the request in flight finish with Connection: close, and returns once
// it has.
func TestShutdownClosesIdleFinishesActive(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	tr := &transport{headerTimeout: readHeaderTimeout, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "done")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- tr.serve(ln) }()
	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	never := dial()
	idle := dial()
	io.WriteString(idle, "GET /fast HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, err := http.ReadResponse(bufio.NewReader(idle), nil); err != nil || resp.Close {
		t.Fatalf("keep-alive request: %v, %+v", err, resp)
	}
	active := dial()
	io.WriteString(active, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	for tracked := 0; tracked < 3; time.Sleep(time.Millisecond) {
		// The never-used connection may still be in the accept queue.
		tr.mu.Lock()
		tracked = len(tr.conns)
		tr.mu.Unlock()
	}

	shut := make(chan error, 1)
	t0 := time.Now()
	go func() { shut <- tr.shutdown(context.Background()) }()
	for name, c := range map[string]net.Conn{"never-used": never, "idle": idle} {
		if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Errorf("%s connection: read %d, %v; want it closed", name, n, err)
		}
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("idle connections closed after %v, want at once", d)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err := http.ReadResponse(bufio.NewReader(active), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != "done" || !resp.Close {
		t.Errorf("in-flight request: HTTP %d %q, close %v; want 200 \"done\" and Connection: close", resp.StatusCode, b, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestServeDeadlines: a request's header must arrive within the header
// timeout of its first byte (of the accept, on a new connection) or the
// connection closes without a reply; its body must arrive within the
// same bound, whether the handler reads it or leaves it to the reply's
// drain, or the reply goes out and the connection closes; a connection
// idle between requests has no deadline.
func TestServeDeadlines(t *testing.T) {
	tr := &transport{headerTimeout: 100 * time.Millisecond, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/read" {
			if _, err := io.ReadAll(r.Body); err != nil {
				http.Error(w, "short body", http.StatusBadRequest)
				return
			}
		}
		io.WriteString(w, "ok")
	})}
	addr := serveLoopback(t, tr)
	for name, partial := range map[string]string{"silent": "", "stalled header": "GET / HTTP/1.1\r\nHost: x\r\n"} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		io.WriteString(c, partial)
		b, err := io.ReadAll(c)
		c.Close()
		if err != nil || len(b) != 0 {
			t.Errorf("%s: read %q, %v; want the connection closed without a reply", name, b, err)
		}
	}

	// One byte of a 100-byte body, then silence.
	for name, path := range map[string]string{"stalled body, read": "/read", "stalled body, unread": "/"} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		start := time.Now()
		io.WriteString(c, "POST "+path+" HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nx")
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		if err == nil && !resp.Close {
			err = errors.New("reply kept the connection")
		}
		if took := time.Since(start); err != nil || took > 2*time.Second {
			t.Errorf("%s: %v after %v; want a reply with Connection: close well within the 5 s client deadline", name, err, took)
		}
		c.Close()
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c)
	for i := 0; i < 2; i++ {
		if i == 1 {
			time.Sleep(4 * tr.headerTimeout)
		}
		io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d on a kept-alive connection: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
	}
}

// seenRequest is what a handler saw of a request.
type seenRequest struct {
	method, uri, host, proto string
	url                      url.URL
	header                   http.Header
	contentLength            int64
	body                     []byte
	bodyErr                  error
}

// pipeServe feeds in to the loop over net.Pipe, then closes the
// client's end, and returns what the handler saw of the first request
// (nil if none reached it) next to what http.ReadRequest parses of in
// (nil if it refuses), its Host header moved to Request.Host as
// net/http's server moves it.
func pipeServe(in []byte) (got, want *seenRequest) {
	if req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(in))); err == nil {
		want = seen(req)
		want.header.Del("Host")
	}
	tr := &transport{headerTimeout: readHeaderTimeout, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got == nil {
			got = seen(r)
		}
	})}
	srvEnd, cliEnd := net.Pipe()
	c := newConn(tr, srvEnd)
	done := make(chan struct{})
	go func() { c.serve(); close(done) }()
	go io.Copy(io.Discard, cliEnd)
	cliEnd.Write(in) // returns once the loop has read it all, or closed
	cliEnd.Close()
	<-done
	return got, want
}

// wellFormed are requests the loop must serve as http.ReadRequest
// parses them: FuzzServeConn's seeds, and TestServeParsesAsReadRequest's
// cases, so a loop that refused everything would not pass.
var wellFormed = []string{
	"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET /v1/lookup?kind=lu&key=5 HTTP/1.1\r\nHost: x\r\nX-Atm-Tenant: a\r\nx-atm-tenant:b \t\r\n\r\n",
	"POST /v1/submit HTTP/1.1\r\nHost: 127.0.0.1:80\r\nContent-Length: 4\r\nContent-Type:  application/json\r\n\r\n{}\r\n",
	"POST / HTTP/1.1\r\nhost: x\r\ntransfer-encoding: Chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n",
	"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nab",
	"GET http://h:80/p?q#f HTTP/1.1\r\nHost: y\r\nPragma: no-cache\r\nConnection: keep-alive, Upgrade\r\n\r\n",
	"GET / HTTP/1.1\nHost: x\nUser-Agent: Go-http-client/1.1\nAccept-Encoding: gzip\n\n",
	"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 1\r\n\r\na",
	"GET / HTTP/1.1\r\nHost: x\r\n\r\nGET /2 HTTP/1.1\r\nHost: x\r\n\r\n",
	"get /%41%2f?a=%20 HTTP/1.9\r\nHost: x\r\nContent-Length: 007\r\nX-Obs: \x80\xff\r\n\r\n1234567",
	"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
}

// TestServeParsesAsReadRequest: each well-formed request reaches the
// handler as http.ReadRequest parses it.
func TestServeParsesAsReadRequest(t *testing.T) {
	for _, in := range wellFormed {
		got, want := pipeServe([]byte(in))
		if want == nil || want.bodyErr != nil {
			t.Fatalf("%q: not well-formed: ReadRequest parses %+v", in, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n loop        %+v\n ReadRequest %+v", in, got, want)
		}
	}
}

// FuzzServeConn feeds arbitrary bytes to the loop over net.Pipe. The
// loop must not panic; a request http.ReadRequest refuses, or whose
// body it cannot read, must not reach the handler with a body read
// whole; and one both accept must reach the handler as ReadRequest
// parses it.
func FuzzServeConn(f *testing.F) {
	for _, s := range wellFormed {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\nA: b\r\n c\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-T: 1\r\n\r\n",
		"GET  / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nK: v\r\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, want := pipeServe(in)
		switch {
		case got == nil || got.bodyErr != nil:
			// Refused, or its body was: stricter than net/http is allowed.
		case want == nil:
			t.Fatalf("http.ReadRequest refuses %q, the loop served %+v", in, got)
		case want.bodyErr != nil:
			t.Fatalf("http.ReadRequest cannot read the body of %q (%v), the loop read %q", in, want.bodyErr, got.body)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%q:\n loop        %+v\n ReadRequest %+v", in, got, want)
		}
	})
}

func seen(r *http.Request) *seenRequest {
	s := &seenRequest{
		method: r.Method, uri: r.RequestURI, host: r.Host, proto: r.Proto,
		url: *r.URL, header: r.Header.Clone(), contentLength: r.ContentLength,
	}
	s.body, s.bodyErr = io.ReadAll(r.Body)
	if len(s.body) == 0 {
		s.body = nil
	}
	return s
}
