package powerd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/memo"
	"hlpower/internal/service"
)

// Golden wire responses. Each transcript is a fixed sequence of
// requests against one server, recorded as status, Content-Type,
// Retry-After and the body bytes, and compared byte for byte with
// testdata/wire/<name>.golden. The files pin what a client sees: the
// payloads and their cached replays, every validation message, the
// budget rejections, and the memo counters the sequence leaves behind.
// They were recorded once and are never regenerated to make a change
// pass; a diff here is a wire-format change.
//
// The bytes are host-independent: every simulate runs on one shard
// whatever GOMAXPROCS is (the recorded requests still name workers,
// which pins that the field is accepted and ignored), and codegen
// promotion is off.

// wireRequest is one transcript step: a POST of a raw JSON body.
type wireRequest struct {
	name, path, body string
}

// wireConfig is the golden servers' configuration: testConfig's small
// budgets with a step allowance every fresh request fits and every
// step-limit request exceeds.
func wireConfig() Config {
	cfg := testConfig()
	cfg.MaxSteps = 60_000
	cfg.CodegenAfter = -1
	return cfg
}

// wireSequences are the single-endpoint transcripts, run in order on
// one server so later segments replay entries earlier ones stored.
var wireSequences = []struct {
	name string
	reqs []wireRequest
}{
	{"simulate", []wireRequest{
		{"fresh", "/v1/simulate", `{"circuit":"adder","width":6,"cycles":96,"seed":1,"workers":2}`},
		{"cached replay", "/v1/simulate", `{"circuit":"adder","width":6,"cycles":96,"seed":1,"workers":2}`},
		{"fresh single shard", "/v1/simulate", `{"circuit":"multiplier","width":5,"cycles":300,"seed":42,"workers":1}`},
		{"unknown circuit", "/v1/simulate", `{"circuit":"nonsense","width":8,"cycles":100,"workers":1}`},
		{"unknown circuit replay", "/v1/simulate", `{"circuit":"nonsense","width":8,"cycles":100,"workers":1}`},
		{"width too large", "/v1/simulate", `{"circuit":"adder","width":99,"cycles":100,"workers":1}`},
		{"width too small", "/v1/simulate", `{"circuit":"adder","width":1,"cycles":100,"workers":1}`},
		{"cycles negative", "/v1/simulate", `{"circuit":"adder","width":8,"cycles":-1,"workers":1}`},
		{"cycles too many", "/v1/simulate", `{"circuit":"adder","width":8,"cycles":200001,"workers":1}`},
		{"unknown field", "/v1/simulate", `{"circuit":"adder","width":8,"cycles":100,"workers":1,"bogus":1}`},
		{"not an object", "/v1/simulate", `[1,2]`},
	}},
	{"rank", []wireRequest{
		{"fresh", "/v1/rank", `{"width":5,"cycles":64,"seed":5}`},
		{"cached replay", "/v1/rank", `{"width":5,"cycles":64,"seed":5}`},
		{"width too large", "/v1/rank", `{"width":99,"cycles":100,"seed":1}`},
		{"width too small", "/v1/rank", `{"width":1,"cycles":100,"seed":1}`},
		{"cycles too few", "/v1/rank", `{"width":4,"cycles":1,"seed":1}`},
		{"cycles too many", "/v1/rank", `{"width":4,"cycles":200001,"seed":1}`},
		{"unknown field", "/v1/rank", `{"width":4,"cycles":100,"unknown_field":1}`},
	}},
	{"bdd", []wireRequest{
		{"fresh", "/v1/bdd", `{"function":"parity","vars":6}`},
		{"cached replay", "/v1/bdd", `{"function":"parity","vars":6}`},
		{"fresh one var", "/v1/bdd", `{"function":"majority","vars":1}`},
		{"same table other name", "/v1/bdd", `{"function":"and","vars":1}`},
		{"unknown function", "/v1/bdd", `{"function":"bogus","vars":4}`},
		{"vars too large", "/v1/bdd", `{"function":"parity","vars":99}`},
		{"vars zero", "/v1/bdd", `{"function":"parity","vars":0}`},
		{"unknown field", "/v1/bdd", `{"function":"parity","vars":4,"bogus":true}`},
		{"degraded", "/v1/bdd", `{"function":"majority","vars":16,"allow_degraded":true}`},
		{"degraded again", "/v1/bdd", `{"function":"majority","vars":16,"allow_degraded":true}`},
	}},
	{"predict", []wireRequest{
		{"fresh", "/v1/predict", `{"circuit":"adder","width":6,"model":"pfa","train":64,"eval":64,"seed":4}`},
		{"cached replay", "/v1/predict", `{"circuit":"adder","width":6,"model":"pfa","train":64,"eval":64,"seed":4}`},
		{"fresh io", "/v1/predict", `{"circuit":"comparator","width":4,"model":"io","train":100,"eval":80,"seed":9}`},
		{"unknown circuit", "/v1/predict", `{"circuit":"nonsense","width":4,"model":"pfa","train":100,"eval":100}`},
		{"unknown model", "/v1/predict", `{"circuit":"adder","width":4,"model":"bogus","train":100,"eval":100}`},
		{"width too large", "/v1/predict", `{"circuit":"adder","width":99,"model":"pfa","train":100,"eval":100}`},
		{"train too few", "/v1/predict", `{"circuit":"adder","width":4,"model":"pfa","train":1,"eval":100}`},
		{"eval too many", "/v1/predict", `{"circuit":"adder","width":4,"model":"pfa","train":100,"eval":200001}`},
		{"unknown field", "/v1/predict", `{"circuit":"adder","width":4,"model":"pfa","train":100,"eval":100,"x":0}`},
	}},
}

// wireLimitSequence is one step-limit trip per single endpoint: valid
// requests whose work exceeds MaxSteps. They run on a server of their
// own, so how often a trip is attempted stays out of the stats
// transcript.
var wireLimitSequence = []wireRequest{
	{"simulate", "/v1/simulate", `{"circuit":"multiplier","width":16,"cycles":20000,"seed":3,"workers":1}`},
	{"rank", "/v1/rank", `{"width":16,"cycles":20000,"seed":2}`},
	{"bdd", "/v1/bdd", `{"function":"majority","vars":16}`},
	{"predict", "/v1/predict", `{"circuit":"multiplier","width":16,"model":"dbt","train":20000,"eval":64,"seed":1}`},
}

// wireBatchItems is batchTestItems with simulate workers named (and
// ignored) plus one malformed item.
func wireBatchItems() []service.BatchItem {
	items := batchTestItems()
	for i := range items {
		if s := items[i].Simulate; s != nil {
			c := *s
			c.Workers = 2
			items[i].Simulate = &c
		}
	}
	return append(items, service.BatchItem{ID: "bad", Op: service.OpSimulate,
		Simulate: &simulateRequest{Circuit: "nonsense", Width: 4, Cycles: 64, Workers: 1}})
}

// wireBatchSequence runs after the single-endpoint segments: the batch
// replays what the single requests stored, the stream replays the
// batch, and single requests then replay what the batch stored.
func wireBatchSequence(t *testing.T) []wireRequest {
	body, err := json.Marshal(service.BatchRequest{Items: wireBatchItems()})
	if err != nil {
		t.Fatal(err)
	}
	return []wireRequest{
		{"batch", "/v1/batch", string(body)},
		{"batch stream", "/v1/batch/stream", string(body)},
		{"simulate stored by batch", "/v1/simulate", `{"circuit":"adder","width":6,"cycles":96,"seed":2,"workers":2}`},
		{"bdd stored by batch", "/v1/bdd", `{"function":"parity","vars":6}`},
		{"rank stored by single", "/v1/rank", `{"width":5,"cycles":64,"seed":5}`},
		{"empty batch", "/v1/batch", `{"items":[]}`},
		{"batch unknown field", "/v1/batch", `{"items":[{"op":"rank","rank":{"width":4,"cycles":64}}],"x":1}`},
	}
}

// wireFaultSequence arms a fault plan on a fresh server: every request
// runs once and fails on its injected trip, however many failed before
// it, and so does each of the batch's simulate items.
func wireFaultSequence(t *testing.T) []wireRequest {
	body, err := json.Marshal(service.BatchRequest{Items: wireBatchItems()[:3]})
	if err != nil {
		t.Fatal(err)
	}
	sim := `{"circuit":"adder","width":4,"cycles":100,"seed":1,"workers":1}`
	return []wireRequest{
		{"injected fault", "/v1/simulate", sim},
		{"injected fault, second request", "/v1/simulate", sim},
		{"injected fault, third request", "/v1/simulate", sim},
		{"batch under the fault plan", "/v1/batch", string(body)},
	}
}

// runWire posts each request through the server's handler and renders
// the transcript.
func runWire(s *Server, reqs []wireRequest) []byte {
	var out bytes.Buffer
	for _, rq := range reqs {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, strings.NewReader(rq.body)))
		ra := rec.Header().Get("Retry-After")
		if ra == "" {
			ra = "-"
		}
		fmt.Fprintf(&out, "=== %s\nPOST %s\n%s\n--- %d %s Retry-After: %s\n", rq.name, rq.path, rq.body,
			rec.Code, rec.Header().Get("Content-Type"), ra)
		out.Write(rec.Body.Bytes())
		out.WriteString("\n")
	}
	return out.Bytes()
}

// wireStats renders the /v1/stats counters the sequence pins: requests
// served and rejected, and the memo's traffic and occupancy.
func wireStats(t *testing.T, s *Server) []byte {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Served   int64      `json:"served"`
		Rejected int64      `json:"rejected"`
		Memo     memo.Stats `json:"memo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// wireTranscripts runs every golden sequence and returns the rendered
// transcripts by golden-file name.
func wireTranscripts(t *testing.T) map[string][]byte {
	got := make(map[string][]byte)
	s := NewServer(wireConfig())
	for _, seq := range wireSequences {
		got[seq.name] = runWire(s, seq.reqs)
	}
	got["batch"] = runWire(s, wireBatchSequence(t))
	got["stats"] = wireStats(t, s)
	got["limits"] = runWire(NewServer(wireConfig()), wireLimitSequence)

	f := NewServer(wireConfig())
	f.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1})
	got["fault"] = runWire(f, wireFaultSequence(t))
	return got
}

func TestWireGolden(t *testing.T) {
	for name, got := range wireTranscripts(t) {
		path := filepath.Join("testdata", "wire", name+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes differ from %s\n%s", name, path, firstDiff(want, got))
		}
	}
}

// firstDiff describes the first differing line of two transcripts.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want %q\n got  %q", i+1, w, g)
		}
	}
	return "identical lines, different bytes"
}
