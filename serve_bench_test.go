package atm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"atm/internal/core"
	"atm/internal/decfloat"
	"atm/internal/service"
)

// BenchmarkServeHTTP measures one warm POST /v1/submit through
// Server.ServeHTTP on a recorder — the HTTP front-end without a socket:
// body read, decode, four THT hits served inline on the calling
// goroutine, reply encode. The body is the request ISSUE 12 profiled:
// one blackscholes, kmeans, lu and stencil task, 624 input floats,
// ≈12 KB as JSON. json and bin send the same tasks, so their difference
// is the request decoder. bin-miss and bin-train send one lu task per
// request whose input never repeats, so every request runs its kernel
// and inserts under a 64 KiB budget that evicts on every insert once
// full. On bin-miss's Static engine the type is steady, so the task is
// a miss. On bin-train's Dynamic engine the type trains throughout:
// each task makes the counted lookup at the type's level, runs, and is
// graded against what its key matched or inserted (the benchmark fails
// if the type leaves training). Both are admitted and run on the calling
// goroutine (BENCH_8.json). bin-conn sends bin's request through
// Server.Serve instead: raw bytes written on one kept-alive loopback
// connection, the reply read back with no net/http client, so allocs/op
// are the server's alone and ns/op is the round trip, both sides'
// syscalls included.
func BenchmarkServeHTTP(b *testing.B) {
	var tasks []service.Task
	type jsonTask struct {
		Kind  string    `json:"kind"`
		Input []float64 `json:"input"`
	}
	var jt []jsonTask
	for i, name := range []string{"blackscholes", "kmeans", "lu", "stencil"} {
		k, _ := service.KindByName(name)
		in := service.Input(k, uint64(i), 1)
		tasks = append(tasks, service.Task{Kind: name, Input: in})
		jt = append(jt, jsonTask{name, in})
	}
	jsonBody, err := json.Marshal(map[string]any{"tasks": jt})
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := service.EncodeBinaryTasks(tasks)
	if err != nil {
		b.Fatal(err)
	}
	missBody, err := service.EncodeBinaryTasks(tasks[2:3]) // lu
	if err != nil {
		b.Fatal(err)
	}
	trainBody := bytes.Clone(missBody)
	// The binary layout of a request of one lu task up to its input
	// floats: u32 count, u8 name length, name, u32 float count.
	luFloats := func(body []byte) []byte { return body[4+1+len(tasks[2].Kind)+4:] }
	// nextMiss makes body request i's: it sets the first input float.
	nextMiss := func(body []byte) func(i int) {
		first := luFloats(body)[:8]
		return func(i int) { binary.LittleEndian.PutUint64(first, math.Float64bits(float64(i))) }
	}
	// nextTrain makes body request i's by changing every input float, in
	// [0, 1) as the kinds take them: a grade of its outputs against
	// another request's then fails τmax, so the type never leaves
	// training.
	nextTrain := func(body []byte) func(i int) {
		floats := luFloats(body)
		return func(i int) {
			for j := 0; j < len(floats); j += 8 {
				x := uint64(i)<<16 | uint64(j) // splitmix64's finalizer
				x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
				x = (x ^ x>>27) * 0x94d049bb133111eb
				x ^= x >> 31
				binary.LittleEndian.PutUint64(floats[j:], math.Float64bits(float64(x>>11)/(1<<53)))
			}
		}
	}
	for _, enc := range []struct {
		name, contentType string
		body              []byte
		mode              core.Mode
		budget            int64
		next              func(i int) // makes the body request i's
		conn              bool        // through Serve on a loopback connection
	}{
		{"json", "application/json", jsonBody, core.ModeStatic, 0, func(int) {}, false},
		{"bin", "application/x-atm-tasks", binBody, core.ModeStatic, 0, func(int) {}, false},
		{"bin-miss", "application/x-atm-tasks", missBody, core.ModeStatic, 64 << 10, nextMiss(missBody), false},
		{"bin-train", "application/x-atm-tasks", trainBody, core.ModeDynamic, 64 << 10, nextTrain(trainBody), false},
		{"bin-conn", "application/x-atm-tasks", binBody, core.ModeStatic, 0, func(int) {}, true},
	} {
		b.Run(enc.name, func(b *testing.B) {
			memo := core.New(core.Config{Mode: enc.mode, THTBudgetBytes: enc.budget})
			eng := service.New(service.Config{Memo: memo})
			defer eng.Close()
			srv := service.NewServer(eng)
			serve := func(i int) {
				enc.next(i)
				req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(enc.body))
				req.Header.Set("Content-Type", enc.contentType)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			if enc.conn {
				serve = serveOverConn(b, srv, enc.contentType, enc.body)
			}
			// json, bin: the first pass executes and inserts, the rest are
			// hits. bin-miss, bin-train: the table fills to its budget
			// (about 120 entries) and from then on every insert evicts
			// and recycles.
			for i := 1; i <= 256; i++ {
				serve(-i)
			}
			b.SetBytes(int64(len(enc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(i)
			}
			b.StopTimer()
			for _, ty := range memo.Stats().Types {
				if enc.mode == core.ModeDynamic && ty.Tasks > 0 && ty.Steady {
					b.Fatalf("%s left training: %+v", ty.Name, ty)
				}
			}
		})
	}
}

// BenchmarkFloatCodec measures the submit route's float text codec on the
// floats that route moves: the five memoizable kinds' input vectors as
// clients send them (encoding/json's text) through decfloat.Parse, and
// the output vectors their kernels compute through
// decfloat.AppendShortest. One op is one float, the vectors taken in
// turn, so ns/op reads as the cost per number of a request or a reply
// (BENCH_8.json).
func BenchmarkFloatCodec(b *testing.B) {
	var texts [][]byte
	var outs []float64
	for _, k := range service.Kinds() {
		if !k.Memoize {
			continue
		}
		for key := uint64(0); key < 4; key++ {
			in := service.Input(k, key, 1)
			out := make([]float64, k.Out)
			k.Fn(in, out)
			outs = append(outs, out...)
			for _, f := range in {
				text, err := json.Marshal(f)
				if err != nil {
					b.Fatal(err)
				}
				texts = append(texts, append(text, ',')) // as in an array: the number ends at a delimiter
			}
		}
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i, j := 0, 0; i < b.N; i++ {
			f, n, ok := decfloat.Parse(texts[j])
			if !ok || n != len(texts[j])-1 {
				b.Fatalf("Parse(%s) = %v, %d, %v", texts[j], f, n, ok)
			}
			if j++; j == len(texts) {
				j = 0
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 64)
		b.ReportAllocs()
		for i, j := 0, 0; i < b.N; i++ {
			buf = decfloat.AppendShortest(buf[:0], outs[j])
			if j++; j == len(outs) {
				j = 0
			}
		}
	})
}

// serveOverConn starts srv.Serve on a loopback listener and returns a
// function that sends one POST /v1/submit of body on a kept-alive
// connection and reads the reply, allocating nothing on the client's
// side. The server shuts down when the benchmark ends.
func serveOverConn(b *testing.B, srv *service.Server, contentType string, body []byte) func(int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		_ = srv.Shutdown(context.Background())
	})
	req := fmt.Appendf(nil, "POST /v1/submit HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", contentType, len(body))
	req = append(req, body...)
	br := bufio.NewReaderSize(c, 64<<10)
	return func(int) {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		status, err := br.ReadSlice('\n')
		if err != nil || !bytes.HasPrefix(status, []byte("HTTP/1.1 200 ")) {
			b.Fatalf("reply %q: %v", status, err)
		}
		n := -1
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if len(line) <= 2 {
				break
			}
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				n = 0
				for _, d := range bytes.TrimSpace(v) {
					n = 10*n + int(d-'0')
				}
			}
		}
		if n < 0 {
			b.Fatal("reply without Content-Length")
		}
		if _, err := br.Discard(n); err != nil {
			b.Fatal(err)
		}
	}
}
