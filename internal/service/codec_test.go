package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"atm/internal/core"
)

// ---- the encoding/json oracle ----
//
// What the submit route did before it had a codec of its own:
// json.Unmarshal into submitRequest/taskSpec, then resolve. It survives
// here, and only here, as the reference the hand-written decoder and
// encoder are held to.

// submitRequest is that struct, which the tests also marshal with
// encoding/json to build request bodies.
type submitRequest struct {
	Tasks []taskSpec `json:"tasks"`
}

// taskSpec is one task: a kind plus either an explicit input vector or
// a (key, seed) pair the server expands through the deterministic
// workload generator. Tenant selects the memoization namespace.
type taskSpec struct {
	Kind   string    `json:"kind"`
	Tenant string    `json:"tenant,omitempty"`
	Input  []float64 `json:"input,omitempty"`
	Key    *uint64   `json:"key,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
}

// oracleRequest is submitRequest with its two slices wrapped so that a
// repeated member starts from an empty slice. encoding/json decodes a
// repeated array member into the elements the first occurrence left
// behind — merging task fields element by element, and keeping stale
// floats where the second array holds a null — an accident of slice
// reuse (golang/go#21092) the decoder deliberately does not reproduce:
// there the last member wins whole. docs/service.md records the
// divergence.
type oracleRequest struct {
	Tasks oracleSpecs `json:"tasks"`
}

type oracleSpec struct {
	Kind   string      `json:"kind"`
	Tenant string      `json:"tenant,omitempty"`
	Input  oracleInput `json:"input,omitempty"`
	Key    *uint64     `json:"key,omitempty"`
	Seed   uint64      `json:"seed,omitempty"`
}

type oracleSpecs []oracleSpec

func (v *oracleSpecs) UnmarshalJSON(b []byte) error {
	var fresh []oracleSpec
	err := json.Unmarshal(b, &fresh)
	*v = fresh
	return err
}

type oracleInput []float64

func (v *oracleInput) UnmarshalJSON(b []byte) error {
	var fresh []float64
	err := json.Unmarshal(b, &fresh)
	*v = fresh
	return err
}

// oracleDecode is the old handler's JSON branch: Unmarshal, then the
// old Server.resolve per task.
func oracleDecode(kinds map[string]Kind, body []byte, defTenant string) ([]Task, error) {
	var req oracleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &BadTaskError{msg: "malformed JSON body: " + err.Error()}
	}
	tasks := make([]Task, 0, len(req.Tasks))
	for i, spec := range req.Tasks {
		tenant := spec.Tenant
		if tenant == "" {
			tenant = defTenant
		}
		switch {
		case spec.Input != nil:
			tasks = append(tasks, Task{Kind: spec.Kind, Tenant: tenant, Input: spec.Input})
		case spec.Key == nil:
			return nil, &BadTaskError{msg: fmt.Sprintf("task %d: needs either input or key", i)}
		default:
			k, ok := kinds[spec.Kind]
			if !ok {
				return nil, &BadTaskError{msg: fmt.Sprintf("task %d: unknown kind %q", i, spec.Kind)}
			}
			tasks = append(tasks, Task{Kind: spec.Kind, Tenant: tenant, Input: Input(k, *spec.Key, spec.Seed)})
		}
	}
	return tasks, nil
}

// The old reply shape, marshalled by encoding/json.
type submitResponse struct {
	Results []taskResult   `json:"results"`
	Batch   batchBreakdown `json:"batch"`
}

type taskResult struct {
	Output []float64 `json:"output"`
}

type batchBreakdown struct {
	Tasks    int64 `json:"tasks"`
	Executed int64 `json:"executed"`
	MemoTHT  int64 `json:"memo_tht"`
	MemoIKT  int64 `json:"memo_ikt"`
}

// The old GET /v1/lookup reply shape.
type lookupResponse struct {
	Hit    bool      `json:"hit"`
	Output []float64 `json:"output,omitempty"`
}

func catalog() map[string]Kind {
	m := map[string]Kind{}
	for _, k := range Kinds() {
		m[k.Name] = k
	}
	return m
}

// sameTasks compares decoded task lists bit for bit.
func sameTasks(a, b []Task) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d tasks vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Tenant != b[i].Tenant {
			return fmt.Sprintf("task %d: kind/tenant %q/%q vs %q/%q", i, a[i].Kind, a[i].Tenant, b[i].Kind, b[i].Tenant)
		}
		if len(a[i].Input) != len(b[i].Input) {
			return fmt.Sprintf("task %d: %d input floats vs %d", i, len(a[i].Input), len(b[i].Input))
		}
		for j := range a[i].Input {
			if math.Float64bits(a[i].Input[j]) != math.Float64bits(b[i].Input[j]) {
				return fmt.Sprintf("task %d input[%d]: %v vs %v", i, j, a[i].Input[j], b[i].Input[j])
			}
		}
	}
	return ""
}

// submitDecodeSeeds are the bodies the differential fuzz starts from:
// the shapes where a hand-written decoder and encoding/json are most
// likely to part ways.
var submitDecodeSeeds = []string{
	// The ordinary forms.
	`{"tasks":[{"kind":"lu","key":5,"seed":2},{"kind":"swaptions","input":[0.5,1e-3,-2.5E+2,0,-0,1.0e0]}]}`,
	`{"tasks":[{"kind":"lu","tenant":"acme","key":1},{"kind":"lu","tenant":"acme","key":2},{"kind":"lu","tenant":"","key":3}]}`,
	" \t\r\n{ \"tasks\" : [ { \"kind\" : \"spin\" , \"input\" : [ 1 , 2 ] } ] } \n",
	// Case-folded and duplicate keys.
	`{"TASKS":[{"KIND":"lu","Key":1,"SEED":2,"Tenant":"t","INPUT":null}]}`,
	`{"ta\u017fk\u017f":[{"\u212aind":"lu","\u212AEY":7,"\u017feed":1}]}`,
	"{\"taſks\":[{\"Kind\":\"lu\",\"Key\":7}]}",
	`{"\u0074asks":[{"k\u0069nd":"l\u0075","key":1}]}`,
	`{"tasks":[{"kind":"nope","kind":"lu","key":1,"key":2,"seed":3,"seed":null}]}`,
	`{"tasks":[{"kind":"lu","kind":null,"key":1,"tenant":"a","tenant":null}]}`,
	`{"tasks":[{"kind":"lu","key":1,"key":null}]}`,
	`{"tasks":[{"kind":"lu","input":[1,2],"input":[3]}]}`,
	`{"tasks":[{"kind":"lu","input":[5,6],"input":[null]}]}`,
	`{"tasks":[{"kind":"lu","input":[1],"input":null,"key":4}]}`,
	`{"tasks":[{"kind":"lu","key":1},{"kind":"lu","key":2}],"tasks":[{"seed":3}]}`,
	`{"tasks":[{"kind":"lu","key":1}],"tasks":null}`,
	`{"tasks":null,"tasks":[{"kind":"lu","key":1}]}`,
	`{"tasks":[{}],"tasks":[{"kind":"lu","key":1}]}`,
	`{"tasks":[{"kind":"nope","key":1},null],"tasks":null}`,
	`{"tasks":[{"kind":"lu","key":1}],"tasks":[{}]}`,
	// input: null against [], null elements, wrong types.
	`{"tasks":[{"kind":"lu","input":null}]}`,
	`{"tasks":[{"kind":"lu","input":[]}]}`,
	`{"tasks":[{"kind":"lu","input":[],"key":1}]}`,
	`{"tasks":[{"kind":"lu","input":[null,1,null]}]}`,
	`{"tasks":[{"kind":"lu","input":[1,"2"]}]}`,
	`{"tasks":[{"kind":"lu","input":[[1]]}]}`,
	`{"tasks":[{"kind":"lu","input":{"0":1}}]}`,
	`{"tasks":[{"kind":"lu","input":"1,2"}]}`,
	`{"tasks":[{"kind":"lu","input":[true]}]}`,
	// Kind strings: escapes, non-UTF-8, surrogates.
	`{"tasks":[{"kind":"l\u0075","key":1},{"kind":"\u006c\u0075","input":[1]}]}`,
	`{"tasks":[{"kind":"a\"b\\c\/d\b\f\n\r\t","input":[1]}]}`,
	"{\"tasks\":[{\"kind\":\"l\xffu\",\"input\":[1]}]}",
	"{\"tasks\":[{\"kind\":\"\xc3\x28\xe2\x82\",\"input\":[1]}]}",
	`{"tasks":[{"kind":"\ud83d\ude00 \ud83d \ude00 \ud83dx \ud83d\u0041","input":[1]}]}`,
	`{"tasks":[{"kind":"\ud83d","tenant":"\udead","input":[1]}]}`,
	`{"tasks":[{"kind":"lu\u0000","input":[1]}]}`,
	`{"tasks":[{"kind":"bad \x escape","input":[1]}]}`,
	`{"tasks":[{"kind":"bad \u12G4 escape","input":[1]}]}`,
	`{"tasks":[{"kind":"it's \' not json","input":[1]}]}`,
	"{\"tasks\":[{\"kind\":\"raw\ttab\",\"input\":[1]}]}",
	`{"tasks":[{"kind":5,"input":[1]}]}`,
	`{"tasks":[{"kind":["lu"],"key":1}]}`,
	`{"tasks":[{"tenant":{"a":1},"kind":"lu","key":1}]}`,
	// Numbers.
	`{"tasks":[{"kind":"lu","input":[1e999]}]}`,
	`{"tasks":[{"kind":"lu","input":[-1e999,1e-999,4.9e-324,2.2250738585072011e-308,1.7976931348623157e308]}]}`,
	`{"tasks":[{"kind":"lu","input":[-0,-0.0,0e0,0E-0]}]}`,
	`{"tasks":[{"kind":"lu","input":[01]}]}`,
	`{"tasks":[{"kind":"lu","input":[-01]}]}`,
	`{"tasks":[{"kind":"lu","input":[1.]}]}`,
	`{"tasks":[{"kind":"lu","input":[.5]}]}`,
	`{"tasks":[{"kind":"lu","input":[+1]}]}`,
	`{"tasks":[{"kind":"lu","input":[1e]}]}`,
	`{"tasks":[{"kind":"lu","input":[1e+]}]}`,
	`{"tasks":[{"kind":"lu","input":[-]}]}`,
	`{"tasks":[{"kind":"lu","input":[0x10]}]}`,
	`{"tasks":[{"kind":"lu","input":[1_000]}]}`,
	`{"tasks":[{"kind":"lu","input":[Infinity]}]}`,
	`{"tasks":[{"kind":"lu","input":[NaN]}]}`,
	`{"tasks":[{"kind":"lu","input":[123456789012345678901234567890,0.1234567890123456789012345678901234567890]}]}`,
	// Input arrays spaced, empty or broken off part-way, most after a
	// task whose input is already in the slab.
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[1,2 ,3]}]}`,
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[ 1,2]}]}`,
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[1 ,2]}]}`,
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[]}]}`,
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[1,null]}]}`,
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[1,]}]}`,
	`{"tasks":[{"kind":"lu","input":[7,8]},{"kind":"lu","input":[1,2`,
	`{"tasks":[{"kind":"lu","input":[1,2,1e999]}]}`,
	`{"tasks":[{"kind":"lu","input":[1,2,01]}]}`,
	`{"tasks":[{"kind":"lu","input":[1,2]`,
	// key and seed: fractional, negative, exponent, overflow, quoted.
	`{"tasks":[{"kind":"lu","key":1.5}]}`,
	`{"tasks":[{"kind":"lu","key":-1}]}`,
	`{"tasks":[{"kind":"lu","key":-0}]}`,
	`{"tasks":[{"kind":"lu","key":1e3}]}`,
	`{"tasks":[{"kind":"lu","key":1.0}]}`,
	`{"tasks":[{"kind":"lu","key":18446744073709551615,"seed":18446744073709551615}]}`,
	`{"tasks":[{"kind":"lu","key":18446744073709551616}]}`,
	`{"tasks":[{"kind":"lu","key":"5"}]}`,
	`{"tasks":[{"kind":"lu","key":true}]}`,
	`{"tasks":[{"kind":"lu","key":1,"seed":-1}]}`,
	`{"tasks":[{"kind":"lu","key":1,"seed":"2"}]}`,
	`{"tasks":[{"kind":"lu","key":00}]}`,
	// Unknown fields, nested and malformed.
	`{"version":2,"meta":{"a":[1,{"b":[true,false,null,"x\u00e9"]}],"c":{}},"tasks":[{"kind":"lu","key":1,"extra":[[[]]],"note":"\\"}],"after":-1.5e-7}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":{"a":tru}}]}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":[1,]}]}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":{"a" 1}}]}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":{"a":1,}}]}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":{a:1}}]}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":"unterminated}]}`,
	`{"":[],"tasks":[{"":0,"kind":"lu","key":1}]}`,
	// The top level and the tasks member.
	`null`, ` null `, `nul`, `nulll`, `true`, `5`, `"tasks"`, `[]`, `[{"kind":"lu","key":1}]`, `{}`, `{"tasks":{}}`,
	`{"tasks":5}`, `{"tasks":"x"}`, `{"tasks":[null]}`, `{"tasks":[5]}`, `{"tasks":[[]]}`, `{"tasks":[{}]}`,
	`{"tasks":[{"kind":"lu","key":1},null]}`,
	``, ` `, `{`, `{"tasks"`, `{"tasks":`, `{"tasks":[`, `{"tasks":[{`, `{"tasks":[{"kind":"lu","input":[1,`,
	// Trailing bytes after the top-level value.
	`{"tasks":[{"kind":"lu","key":1}]} x`,
	`{"tasks":[{"kind":"lu","key":1}]}{}`,
	`{"tasks":[{"kind":"lu","key":1}]}` + "\x00",
	`null null`,
	"\ufeff" + `{"tasks":[{"kind":"lu","key":1}]}`,
	"{\"tasks\":[{\"kind\":\"lu\",\"key\":1}]}\v",
	// Nesting at and past encoding/json's limit of 10000.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"tasks":[{"kind":"lu","key":1,"x":` + strings.Repeat(`{"a":`, 9997) + `1` + strings.Repeat("}", 9997) + `}]}`,
	`{"tasks":[{"kind":"lu","key":1,"x":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
}

// FuzzSubmitDecode holds the submit decoder to the encoding/json
// oracle: the same bodies accepted, and the same tasks out of them.
func FuzzSubmitDecode(f *testing.F) {
	for _, s := range submitDecodeSeeds {
		f.Add([]byte(s))
	}
	kinds := catalog()
	var tasks []Task
	var slab []float64
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := oracleDecode(kinds, body, "hdr")
		// The buffers carry over between inputs, as a pooled request's do.
		var err error
		tasks, slab, err = decodeJSONTasks(kinds, body, "hdr", tasks, slab)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q:\n decoder: %v\n oracle:  %v", body, err, wantErr)
		}
		if err != nil {
			var bad *BadTaskError
			if !errors.As(err, &bad) {
				t.Fatalf("body %q: rejection %v is not a BadTaskError", body, err)
			}
			return
		}
		if diff := sameTasks(tasks, want); diff != "" {
			t.Fatalf("body %q: decoder vs oracle: %s", body, diff)
		}
	})
}

// TestSubmitDecodeMessages pins the wording of the rejections existing
// clients may have seen: syntax errors read as encoding/json's did.
func TestSubmitDecodeMessages(t *testing.T) {
	kinds := catalog()
	for _, body := range []string{
		`not json at all`, ``, `{`, `{"tasks":[{"kind":"lu","input":[1,]}]}`, `{"tasks" 1}`, `{"x":[1 2]}`,
		`{"a":1 "b":2}`, `{1:2}`, `{"tasks":[]} x`, `{"k":"\x"}`, `{"k":"\u12g4"}`, `{"k":tru}`, `{"k":fals}`,
		`{"k":-x}`, `{"k":1.x}`, `{"k":1ex}`, "{\"k\":\"a\nb\"}", `{"k":'a'}`, "{\"k\":\"}", "[\xe9]",
	} {
		_, _, err := decodeJSONTasks(kinds, []byte(body), "", nil, nil)
		_, wantErr := oracleDecode(kinds, []byte(body), "")
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("body %q:\n decoder: %v\n oracle:  %v", body, err, wantErr)
		}
	}
}

// TestSubmitDecodeReusesKindNames checks the point of resolving kinds in
// the decoder: a served kind's name is the catalog's string, not a copy.
func TestSubmitDecodeReusesKindNames(t *testing.T) {
	kinds := catalog()
	body := []byte(`{"tasks":[{"kind":"lu","key":1},{"kind":"l\u0075","key":2}]}`)
	var tasks []Task
	var slab []float64
	allocs := testing.AllocsPerRun(100, func() {
		tasks, slab, _ = decodeJSONTasks(kinds, body, "", tasks, slab)
	})
	if len(tasks) != 2 || tasks[0].Kind != "lu" || tasks[1].Kind != "lu" {
		t.Fatalf("decoded %+v", tasks)
	}
	// The escaped kind costs its unquoting; the plain one nothing.
	if allocs > 2 {
		t.Errorf("warm decode of two keyed tasks: %v allocs, want at most the escaped kind's 2", allocs)
	}
}

// TestSubmitReplyBytes pins the reply encoder to encoding/json's bytes,
// and the handler's reply to the encoder's.
func TestSubmitReplyBytes(t *testing.T) {
	outs := [][]float64{
		{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e20, 1e21, 1.5e21, 1e22, 123456789012345680000, 1e-6, 1e-7, 9.999999e-7, 1.5e-7,
			1e-9, 1e-10, 1e100, 1e-100, -1e21, -1e-7, 4.9e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 1<<53 + 2, 0.000001, 0.0000011, 12345.678e3},
		{},
		{42},
	}
	g := GroupStats{Tasks: 3, Executed: 1, MemoTHT: 2, MemoIKT: -0}
	want := submitResponse{Batch: batchBreakdown{Tasks: g.Tasks, Executed: g.Executed, MemoTHT: g.MemoTHT, MemoIKT: g.MemoIKT}}
	for _, o := range outs {
		want.Results = append(want.Results, taskResult{Output: o})
	}
	var wantBuf bytes.Buffer
	if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
		t.Fatal(err)
	}
	got, err := appendSubmitReply(nil, outs, g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBuf.Bytes()) {
		t.Fatalf("reply bytes differ:\n got  %s\n want %s", got, wantBuf.Bytes())
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendSubmitReply(nil, [][]float64{{1, f}}, g); err == nil {
			t.Errorf("output %v encoded without error", f)
		}
	}

	// Through the handler: the reply of a real request is what
	// encoding/json makes of its outputs, with its length declared.
	atm := core.New(core.Config{Mode: core.ModeStatic})
	srv := NewServer(newTestEngine(t, Config{Memo: atm}))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit",
		strings.NewReader(`{"tasks":[{"kind":"stencil","key":3},{"kind":"swaptions","key":4}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	var back submitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	wantBuf.Reset()
	if err := json.NewEncoder(&wantBuf).Encode(back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("handler reply is not encoding/json's:\n got  %s\n want %s", rec.Body, wantBuf.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte reply", cl, rec.Body.Len())
	}
	if len(back.Results) != 2 || len(back.Results[0].Output) != 256 || back.Batch.Tasks != 2 {
		t.Errorf("reply: %d results, batch %+v", len(back.Results), back.Batch)
	}
}

// TestLookupReplyBytes pins the lookup reply to encoding/json's bytes for
// the old reply struct: hit and miss, with and without an output.
func TestLookupReplyBytes(t *testing.T) {
	for _, want := range []lookupResponse{
		{Hit: true, Output: []float64{0, -1.5, 1e21, 1e-7, 0.1, math.MaxFloat64, 123456789}},
		{Hit: true, Output: []float64{42}},
		{Hit: true, Output: []float64{}},
		{Hit: true},
		{Hit: false},
	} {
		var wantBuf bytes.Buffer
		if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
			t.Fatal(err)
		}
		got, err := appendLookupReply(nil, want.Hit, want.Output)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBuf.Bytes()) {
			t.Errorf("lookup reply bytes differ:\n got  %s\n want %s", got, wantBuf.Bytes())
		}
	}
	if _, err := appendLookupReply(nil, true, []float64{math.Inf(1)}); err == nil {
		t.Error("infinite output encoded without error")
	}
}

// TestJSONAndBinarySubmitShareEntries: a task's key is the bits of its
// input floats, so the text decoder must land on exactly the floats the
// binary body carries. The same inputs sent once in each encoding: the
// second request, whichever it is, hits the entries the first inserted.
func TestJSONAndBinarySubmitShareEntries(t *testing.T) {
	// Inputs whose text takes every path of the number parser: the
	// workload's own seventeen-digit fractions, the strconv fallback's
	// long mantissas and subnormals, both exponent spellings.
	extra := []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-7, 1e21, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		9007199254740993, 0.30000000000000004, 1.0 / 3, 123456789012345680000, 1e23}
	for _, first := range []string{"json", "bin"} {
		atm := core.New(core.Config{Mode: core.ModeStatic})
		srv := NewServer(newTestEngine(t, Config{Memo: atm}))
		var tasks []Task
		var specs []taskSpec
		for i, name := range []string{"blackscholes", "kmeans", "lu", "stencil", "swaptions"} {
			in := Input(mustKind(t, name), uint64(i), 7)
			copy(in, extra[min(i*3, len(extra)):])
			tasks = append(tasks, Task{Kind: name, Input: in})
			specs = append(specs, taskSpec{Kind: name, Input: in})
		}
		jsonBody, err := json.Marshal(submitRequest{Tasks: specs})
		if err != nil {
			t.Fatal(err)
		}
		// A second spelling of the same floats: more digits than the
		// shortest form, which the fast path must hand to strconv.
		longBody := []byte(`{"tasks":[`)
		for i, task := range tasks {
			if i > 0 {
				longBody = append(longBody, ',')
			}
			longBody = append(longBody, fmt.Sprintf(`{"kind":%q,"input":[`, task.Kind)...)
			for j, f := range task.Input {
				if j > 0 {
					longBody = append(longBody, ',')
				}
				longBody = strconv.AppendFloat(longBody, f, 'e', 25, 64)
			}
			longBody = append(longBody, "]}"...)
		}
		longBody = append(longBody, "]}"...)
		binBody, err := EncodeBinaryTasks(tasks)
		if err != nil {
			t.Fatal(err)
		}
		bodies := map[string][]byte{"json": jsonBody, "long": longBody, "bin": binBody}
		var replies [][]byte
		order := []string{first, "json", "long", "bin"}
		for i, enc := range order {
			req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(bodies[enc]))
			if enc == "bin" {
				req.Header.Set("Content-Type", binaryContentType)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s first, %s request: HTTP %d: %s", first, enc, rec.Code, rec.Body)
			}
			var reply submitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatal(err)
			}
			wantHits := int64(len(tasks))
			if i == 0 {
				wantHits = 0
			}
			if reply.Batch.MemoTHT != wantHits || reply.Batch.Executed != int64(len(tasks))-wantHits {
				t.Errorf("%s first, request %d (%s): batch %+v, want %d THT hits", first, i, enc, reply.Batch, wantHits)
			}
			results, _, _ := bytes.Cut(rec.Body.Bytes(), []byte(`"batch"`))
			replies = append(replies, results)
		}
		for i := 1; i < len(replies); i++ {
			if !bytes.Equal(replies[i], replies[0]) {
				t.Errorf("%s first: request %d (%s) returned different outputs", first, i, order[i])
			}
		}
	}
}

// TestSubmitNonFiniteOutput: an output JSON cannot carry used to yield
// a 200 whose body stopped mid-array; it is a 500 with a JSON error now.
func TestSubmitNonFiniteOutput(t *testing.T) {
	nan := Kind{Name: "nan", In: 1, Out: 2, Fn: func(in, out []float64) { out[0], out[1] = 1, math.NaN() }}
	srv := NewServer(newTestEngine(t, Config{KindList: []Kind{nan}}))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(`{"tasks":[{"kind":"nan","input":[1]}]}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d (%s), want 500", rec.Code, rec.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("error body %q is not JSON", rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `atmd_requests_total{route="submit",code="500"} 1`) {
		t.Error("metrics missing the 500 series")
	}
}

// submitBodies returns the four-task request ISSUE 12 profiled (one
// blackscholes, kmeans, lu and stencil task: 624 input floats) in both
// encodings.
func submitBodies(t testing.TB) (jsonBody, binBody []byte) {
	var tasks []Task
	var specs []taskSpec
	for i, name := range []string{"blackscholes", "kmeans", "lu", "stencil"} {
		in := Input(mustKind(t, name), uint64(i), 1)
		tasks = append(tasks, Task{Kind: name, Input: in})
		specs = append(specs, taskSpec{Kind: name, Input: in})
	}
	jsonBody, err := json.Marshal(submitRequest{Tasks: specs})
	if err != nil {
		t.Fatal(err)
	}
	if binBody, err = EncodeBinaryTasks(tasks); err != nil {
		t.Fatal(err)
	}
	return jsonBody, binBody
}

// TestSubmitAllocs pins the allocations of one warm four-task ServeHTTP
// on a recorder, all four tasks table hits. It went from 121 (JSON) and
// 78 (binary) to 34 with the pooled request, and to 25 once hits were
// served on the handler, without a region-header array and taskrt's
// eight per-region dependence states. What is left is the recorder and request the test
// itself builds, MaxBytesReader and the reply's header values; the
// codec, the engine and core contribute none.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	jsonBody, binBody := submitBodies(t)
	for _, enc := range []struct {
		name, contentType string
		body              []byte
		want              float64
	}{
		{"json", "application/json", jsonBody, 25},
		{"bin", binaryContentType, binBody, 25},
	} {
		atm := core.New(core.Config{Mode: core.ModeStatic})
		srv := NewServer(newTestEngine(t, Config{Memo: atm}))
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(enc.body))
			req.Header.Set("Content-Type", enc.contentType)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", enc.name, rec.Code, rec.Body)
			}
		}
		for i := 0; i < 8; i++ {
			serve()
		}
		if got := testing.AllocsPerRun(200, serve); got > enc.want {
			t.Errorf("%s: %v allocs per warm request, want at most %v", enc.name, got, enc.want)
		} else {
			t.Logf("%s: %v allocs per warm request", enc.name, got)
		}
	}
}

// TestSubmitBodyCap: the 8 MiB cap still holds, and a body of exactly
// the cap is still read.
func TestSubmitBodyCap(t *testing.T) {
	srv := NewServer(newTestEngine(t, Config{}))
	post := func(body []byte, declare bool) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
		if !declare {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	task := `{"tasks":[{"kind":"lu","key":1}]}`
	atCap := []byte(task + strings.Repeat(" ", maxBodyBytes-len(task)))
	for _, declare := range []bool{true, false} {
		if code := post(atCap, declare); code != http.StatusOK {
			t.Errorf("body of exactly the cap (length declared: %v): HTTP %d, want 200", declare, code)
		}
		if code := post(append(atCap, ' '), declare); code != http.StatusBadRequest {
			t.Errorf("body one byte over the cap (length declared: %v): HTTP %d, want 400", declare, code)
		}
	}
}

// TestSubmitPooledRequestsDoNotAlias hammers one server from many
// goroutines with distinct bodies in both encodings and checks every
// reply against the kernel: a pooled buffer handed to two requests at
// once would show as a wrong output (and as a race under -race).
func TestSubmitPooledRequestsDoNotAlias(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeStatic})
	_, ts := newTestServer(t, Config{Memo: atm})
	kinds := []Kind{mustKind(t, "lu"), mustKind(t, "swaptions"), mustKind(t, "blackscholes")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var tasks []Task
				var specs []taskSpec
				for j := 0; j <= (g+i)%3; j++ {
					k := kinds[(g+i+j)%len(kinds)]
					in := Input(k, uint64(g*1000+i*10+j), 9)
					tasks = append(tasks, Task{Kind: k.Name, Input: in})
					specs = append(specs, taskSpec{Kind: k.Name, Input: in})
				}
				body, ct := []byte(nil), "application/json"
				if i%2 == 0 {
					body, _ = json.Marshal(submitRequest{Tasks: specs})
				} else {
					body, _ = EncodeBinaryTasks(tasks)
					ct = binaryContentType
				}
				resp, err := http.Post(ts.URL+"/v1/submit", ct, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var sub submitResponse
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				if err != nil || len(sub.Results) != len(tasks) {
					t.Errorf("goroutine %d request %d: %v, %d results", g, i, err, len(sub.Results))
					return
				}
				for j, task := range tasks {
					k := mustKind(t, task.Kind)
					want := make([]float64, k.Out)
					k.Fn(task.Input, want)
					if fmt.Sprint(sub.Results[j].Output) != fmt.Sprint(want) {
						t.Errorf("goroutine %d request %d task %d (%s): wrong output", g, i, j, k.Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzDecodeBinaryTasks: the binary decoder never panics, never
// allocates more than a small multiple of the body it was given, and
// what it accepts survives a round trip through EncodeBinaryTasks.
func FuzzDecodeBinaryTasks(f *testing.F) {
	_, binBody := submitBodies(f)
	f.Add(binBody)
	f.Add(binBody[:len(binBody)/2])
	f.Add([]byte{0, 0, 16, 0})                                  // n = 1<<20, no tasks
	f.Add([]byte{1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})        // nfloats = 2^32-1
	f.Add([]byte{1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x1f})        // 8*nfloats wraps a 32-bit int
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})     // two empty tasks
	f.Add([]byte{1, 0, 0, 0, 2, 'l', 'u', 1, 0, 0, 0, 0, 0, 0}) // truncated float
	f.Add([]byte{1, 0, 0, 0, 255, 'x'})                         // truncated kind name
	f.Add([]byte{})
	kinds := catalog()
	f.Fuzz(func(t *testing.T, body []byte) {
		// Task headers cost 56 bytes per 5-byte minimal record, floats
		// and kind names at most their size in the body; size classes
		// round up. TotalAlloc is the whole process's, and the fuzzing
		// engine's own goroutines allocate now and then, so the decoder
		// is charged the least of three identical decodes.
		var tasks []Task
		var err error
		got, limit := ^uint64(0), uint64(16*len(body)+1024)
		for try := 0; try < 3 && got > limit; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			tasks, _, err = decodeBinaryTasks(kinds, body, "", nil, nil)
			runtime.ReadMemStats(&m1)
			got = min(got, m1.TotalAlloc-m0.TotalAlloc)
		}
		if got > limit {
			t.Fatalf("%d-byte body: decoder allocated %d bytes, limit %d", len(body), got, limit)
		}
		if err != nil {
			var bad *BadTaskError
			if !errors.As(err, &bad) {
				t.Fatalf("rejection %v is not a BadTaskError", err)
			}
			return
		}
		back, err := EncodeBinaryTasks(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, body) {
			t.Fatalf("accepted body does not round-trip:\n in  %x\n out %x", body, back)
		}
	})
}

// TestBinaryHugeCountAllocatesNothing: four bytes declaring 2^20 tasks
// used to cost a 56 MiB task slice before the rest of the body was
// looked at. Now the count is checked against the bytes present first,
// and the whole 400 costs under 4 KiB.
func TestBinaryHugeCountAllocatesNothing(t *testing.T) {
	srv := NewServer(newTestEngine(t, Config{}))
	body := []byte{0, 0, 16, 0}
	const runs = 50
	reqs := make([]*http.Request, runs)
	recs := make([]*httptest.ResponseRecorder, runs)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", binaryContentType)
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	for _, rec := range recs {
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400", rec.Code)
		}
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= 4<<10 {
		t.Errorf("rejecting a 4-byte body allocated %d bytes, want < 4 KiB", per)
	} else {
		t.Logf("rejecting a 4-byte body allocated %d bytes", per)
	}
}
