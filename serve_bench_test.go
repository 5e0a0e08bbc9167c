package atm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
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
// is the request decoder. bin-miss and bin-loop send one lu task per
// request whose input never repeats, so every request misses and
// inserts under a 64 KiB budget that evicts on every insert once full.
// On bin-miss's Static engine the type is steady, so the miss is
// admitted and run on the calling goroutine. bin-loop's engine sets
// VerifyInputs, which the inline path refuses, so every request goes
// through admission, the runtime lock and a SubmitBatch fence, still on
// the calling goroutine: the path the runtime still serves stays gated
// (BENCH_8.json).
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
	// The binary layout up to the first input float: u32 count, u8
	// name length, name, u32 float count.
	missFloat := missBody[4+1+len(tasks[2].Kind)+4:][:8]
	nextMiss := func(i int) {
		binary.LittleEndian.PutUint64(missFloat, math.Float64bits(float64(i)))
	}
	for _, enc := range []struct {
		name, contentType string
		body              []byte
		budget            int64
		verify            bool        // Config.VerifyInputs: the inline path declines
		next              func(i int) // makes the body request i's
	}{
		{"json", "application/json", jsonBody, 0, false, func(int) {}},
		{"bin", "application/x-atm-tasks", binBody, 0, false, func(int) {}},
		{"bin-miss", "application/x-atm-tasks", missBody, 64 << 10, false, nextMiss},
		{"bin-loop", "application/x-atm-tasks", missBody, 64 << 10, true, nextMiss},
	} {
		b.Run(enc.name, func(b *testing.B) {
			memo := core.New(core.Config{Mode: core.ModeStatic, THTBudgetBytes: enc.budget, VerifyInputs: enc.verify})
			eng := service.New(service.Config{Workers: 1, Memo: memo})
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
			// json, bin: the first pass executes and inserts, the rest are
			// hits. bin-miss, bin-loop: the table fills to its budget
			// (about 120 entries, 60 with bin-loop's input copies) and
			// from then on every insert evicts and recycles.
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
			if c := eng.Counters(); enc.verify && c.InlineRequests != 0 {
				b.Fatalf("%d of %d requests were served inline on an engine the inline path must refuse", c.InlineRequests, c.Requests)
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
