package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atm/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, cfg)
	s := NewServer(e)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPSubmitAndLookup(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeStatic})
	_, ts := newTestServer(t, Config{Workers: 2, Memo: atm})

	// Submit by key: the server expands the input deterministically.
	var sub submitResponse
	var hits int64
	for rep := 0; rep < 40; rep++ {
		resp, body := postJSON(t, ts.URL+"/v1/submit", `{"tasks":[{"kind":"lu","key":5,"seed":2},{"kind":"lu","key":6,"seed":2}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		hits += sub.Batch.MemoTHT
	}
	if len(sub.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(sub.Results))
	}
	k, _ := KindByName("lu")
	if len(sub.Results[0].Output) != k.Out {
		t.Fatalf("output len = %d, want %d", len(sub.Results[0].Output), k.Out)
	}
	if hits == 0 {
		t.Fatal("no THT hits over 40 identical submits")
	}

	// The equivalent explicit-input submit returns the same outputs.
	in := Input(k, 5, 2)
	inJSON, _ := json.Marshal(in)
	resp, body := postJSON(t, ts.URL+"/v1/submit", fmt.Sprintf(`{"tasks":[{"kind":"lu","input":%s}]}`, inJSON))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var sub2 submitResponse
	if err := json.Unmarshal(body, &sub2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sub2.Results[0].Output) != fmt.Sprint(sub.Results[0].Output) {
		t.Fatal("keyed and explicit submits disagree")
	}

	// Lookup by key must hit now.
	lresp, lbody := getBody(t, ts.URL+"/v1/lookup?kind=lu&key=5&seed=2")
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("lookup: HTTP %d: %s", lresp.StatusCode, lbody)
	}
	var lr lookupResponse
	if err := json.Unmarshal(lbody, &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Hit || len(lr.Output) != k.Out {
		t.Fatalf("lookup: hit=%v len=%d", lr.Hit, len(lr.Output))
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPSubmitBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	k, _ := KindByName("swaptions")
	in := Input(k, 9, 9)
	payload, err := EncodeBinaryTasks([]Task{{Kind: "swaptions", Input: in}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/submit", binaryContentType, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary submit: HTTP %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, k.Out)
	k.Fn(in, want)
	for i := range want {
		if sub.Results[0].Output[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v", i, sub.Results[0].Output[i], want[i])
		}
	}

	// Truncated bodies are 400, not a hang or a 500.
	for cut := 0; cut < len(payload); cut += 7 {
		resp, err := http.Post(ts.URL+"/v1/submit", binaryContentType, bytes.NewReader(payload[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("truncated at %d: HTTP %d, want 400", cut, resp.StatusCode)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`not json at all`,
		`{"tasks":[]}`,
		`{"tasks":[{"kind":"nope","input":[1]}]}`,
		`{"tasks":[{"kind":"lu","input":[1,2,3]}]}`, // wrong arity
		`{"tasks":[{"kind":"lu"}]}`,                 // neither input nor key
		`{"tasks":[{"kind":"nope","key":1}]}`,       // unknown kind via key
	}
	for _, body := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/submit", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d (%s), want 400", body, resp.StatusCode, b)
		}
		var er errorResponse
		if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
			t.Errorf("body %q: error response %q not JSON", body, b)
		}
	}
	for _, url := range []string{
		"/v1/lookup?kind=lu",           // no input or key
		"/v1/lookup?kind=lu&input=a,b", // unparsable floats
		"/v1/lookup?kind=lu&key=x",     // unparsable key
		"/v1/lookup?kind=nope&key=1",   // unknown kind
		"/v1/lookup?kind=lu&input=1,2", // wrong arity
	} {
		resp, _ := getBody(t, ts.URL+url)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestHTTPShed floods a tiny fixed watermark with non-memoizable spin
// tasks: some requests must come back 429 with Retry-After.
func TestHTTPShed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Backlog: 64})
	in := Input(mustKind(t, "spin"), 1, 1)
	inJSON, _ := json.Marshal(in)
	// 8 spin tasks per request: 32 concurrent senders keep up to 256
	// tasks pending against the 64-task watermark.
	one := fmt.Sprintf(`{"kind":"spin","input":%s}`, inJSON)
	body := `{"tasks":[` + strings.Repeat(one+",", 7) + one + `]}`

	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, 256)
	for g := 0; g < 32; g++ {
		go func() {
			for i := 0; i < 8; i++ {
				resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(body))
				if err != nil {
					results <- result{code: -1}
					continue
				}
				resp.Body.Close()
				results <- result{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			}
		}()
	}
	var ok, shed int
	for i := 0; i < 256; i++ {
		r := <-results
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if shed == 0 || ok == 0 {
		t.Fatalf("ok=%d shed=%d: want both nonzero", ok, shed)
	}

	// The shed shows up in stats and metrics.
	_, sb := getBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.ShedRequests != int64(shed) {
		t.Errorf("stats shed_requests = %d, want %d", st.ShedRequests, shed)
	}
	_, mb := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(mb), `atmd_requests_total{route="submit",code="429"}`) {
		t.Error("metrics missing the 429 series")
	}
}

func TestHTTPMetricsAndStats(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeDynamic})
	s, ts := newTestServer(t, Config{Workers: 1, Memo: atm})
	// One miss, then fifteen graded training hits (LTraining) take the
	// type steady: the loop runs sixteen requests, the last four are
	// served inline.
	for rep := 0; rep < 20; rep++ {
		postJSON(t, ts.URL+"/v1/submit", `{"tasks":[{"kind":"stencil","key":1}]}`)
	}
	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{ // a sample line is matched whole, value included
		"# TYPE atmd_requests_total counter\n",
		`atmd_requests_total{route="submit",code="200"} 20` + "\n",
		"atmd_tasks_total 20\n",
		"# TYPE atmd_inline_requests_total counter\n",
		`atmd_inline_requests_total{outcome="served"} 4` + "\n",
		`atmd_inline_requests_total{outcome="fallback"} 16` + "\n",
		"atmd_batches_total 20\n",
		"# TYPE atmd_submit_seconds histogram\n",
		"atmd_submit_seconds_count 20\n",
		`atm_type_tasks_total{type="svc/stencil"} 20` + "\n",
		`atm_type_executed_total{type="svc/stencil"} 16` + "\n",
		`atm_type_memo_tht_total{type="svc/stencil"} 4` + "\n",
		"atm_tht_entries 1\n",
		"atmd_backlog_limit_tasks ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	st := s.BuildStats()
	if st.Requests != 20 || st.Tasks != 20 || st.ATMTasks != 20 || st.Batches != 20 ||
		st.InlineRequests != 4 || st.InlineTasks != 4 || st.MemoTHT != 4 {
		t.Errorf("stats: %+v", st)
	}
	if !st.Memoizing {
		t.Error("stats: memoizing false with an ATM attached")
	}
	diff := st.Sub(StatsResponse{Requests: 4, ATMTasks: 4, InlineRequests: 1, InlineTasks: 1})
	if diff.Requests != 16 || diff.ATMTasks != 16 || diff.InlineRequests != 3 || diff.InlineTasks != 3 {
		t.Errorf("diff: %+v", diff)
	}
	// The new fields are additive: a client decoding the reply as before
	// still reads what it read.
	fetched, err := FetchStats(http.DefaultClient, ts.URL)
	if err != nil || fetched.Requests != 20 || fetched.InlineRequests != 4 || fetched.InlineTasks != 4 {
		t.Errorf("FetchStats: %+v, %v", fetched, err)
	}

	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestMetricsCountUnlistedStatus: a status outside statusCodes is still
// counted, under code="other".
func TestMetricsCountUnlistedStatus(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.handle("GET /teapot", "teapot", nil, func(w http.ResponseWriter, r *http.Request) int {
		w.WriteHeader(http.StatusTeapot)
		return http.StatusTeapot
	})
	if resp, _ := getBody(t, ts.URL+"/teapot"); resp.StatusCode != http.StatusTeapot {
		t.Fatalf("teapot: HTTP %d", resp.StatusCode)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if want := `atmd_requests_total{route="teapot",code="other"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q", want)
	}
}

func TestHTTPSnapshotNoPersistence(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot without persistence: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestHTTPSnapshotBody: POST /v1/snapshot runs the configured save for
// an empty body or {}, and answers any other body 400 without saving —
// one naming a path, since the server and not the client decides where
// state is written, and one past the 64 KiB cap.
func TestHTTPSnapshotBody(t *testing.T) {
	memo := core.New(core.Config{Mode: core.ModeStatic})
	s, ts := newTestServer(t, Config{Workers: 1, Memo: memo, Save: func() error { return nil }})
	stolen := filepath.Join(t.TempDir(), "stolen.atmsnap")
	for _, c := range []struct {
		name, body string
		code       int
		saves      int64
	}{
		{"empty", "", http.StatusOK, 1},
		{"{}", " {}\n", http.StatusOK, 1},
		{"path", fmt.Sprintf(`{"path":%q}`, stolen), http.StatusBadRequest, 0},
		{"over cap", "{}" + strings.Repeat(" ", 1<<16-1), http.StatusBadRequest, 0},
	} {
		before := s.e.Counters().Saves
		resp, b := postJSON(t, ts.URL+"/v1/snapshot", c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%s body: HTTP %d (%s), want %d", c.name, resp.StatusCode, b, c.code)
		}
		if saves := s.e.Counters().Saves - before; saves != c.saves {
			t.Errorf("%s body: %d saves ran, want %d", c.name, saves, c.saves)
		}
	}
	if _, err := os.Stat(stolen); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a client-chosen path was written: stat = %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	k, _ := KindByName("kmeans")
	tasks := []Task{
		{Kind: "kmeans", Input: Input(k, 1, 2)},
		{Kind: "lu", Input: Input(mustKind(t, "lu"), 3, 4)},
	}
	b, err := EncodeBinaryTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeBinaryTasks(nil, b, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range tasks {
		if got[i].Kind != tasks[i].Kind || fmt.Sprint(got[i].Input) != fmt.Sprint(tasks[i].Input) {
			t.Fatalf("task %d mismatch", i)
		}
	}
	if _, _, err := decodeBinaryTasks(nil, append(b, 0), "", nil, nil); err == nil {
		t.Error("trailing byte accepted")
	}
}
