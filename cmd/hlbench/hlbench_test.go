package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/powerd"
	"hlpower/internal/service"
)

// sequence concatenates a source's warm-up and its first n requests.
func sequence(wl *workload, seed int64, n int) []byte {
	src := wl.source(seed)
	var buf bytes.Buffer
	for _, req := range src.warm {
		buf.WriteString(req.Op)
		buf.Write(req.Body)
	}
	for i := 0; i < n; i++ {
		req := src.next()
		buf.WriteString(req.Op)
		buf.Write(req.Body)
	}
	return buf.Bytes()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := sequence(wl, 1, 40), sequence(wl, 1, 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", wl.name)
		}
		if bytes.Equal(a, sequence(wl, 2, 40)) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", wl.name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 50}, {5, 50}, {19, 50}, {20, 50}, {25, 60}, {100, 90}, {487, 97}, {999, 98}, {1000, 99}, {1e6, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); tc.n >= 20 && float64(tc.n)*(1-float64(p)/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %d leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{0.3, 0.1, 0.7, 0.2, 0.9}, [3]float64{0.15, 0.3, 0.8}},
	} {
		q1, med, q3 := quartiles(append([]float64(nil), tc.xs...))
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, med, q3, tc.want)
				break
			}
		}
	}
}

// stepResult fakes a ladder step: n latencies of base ms, with the
// slowest `slow` of them at slowMS.
func stepResult(n, slow int, base, slowMS float64) loadResult {
	lr := loadResult{arrived: n}
	for i := 0; i < n; i++ {
		v := base
		if i < slow {
			v = slowMS
		}
		lr.lat = append(lr.lat, v)
	}
	lr.sent = n
	return lr
}

func TestLadderPassAndMaxRate(t *testing.T) {
	wl := &workload{refRPS: 1000, limitMS: 5}
	pass := stepResult(2000, 0, 1, 0)
	slowTail := stepResult(2000, 40, 1, 50) // 2% over the limit: p99 fails
	fewSlow := stepResult(2000, 10, 1, 50)  // 0.5% over the limit: p99 passes
	failed := stepResult(2000, 0, 1, 0)
	failed.failed = 1
	backlog := stepResult(2000, 0, 1, 0)
	backlog.arrived, backlog.unsent = 2100, 100

	for name, tc := range map[string]struct {
		lr   loadResult
		want bool
	}{
		"fast":           {pass, true},
		"slow tail":      {slowTail, false},
		"few slow":       {fewSlow, true},
		"failed request": {failed, false},
		"5% unsent":      {backlog, false},
		"no samples":     {loadResult{}, false},
	} {
		if got := stepPasses(tc.lr, wl.limitMS); got != tc.want {
			t.Errorf("%s: stepPasses = %v, want %v", name, got, tc.want)
		}
	}

	for name, tc := range map[string]struct {
		steps []loadResult
		want  float64
	}{
		"all pass":          {[]loadResult{pass, pass, pass, pass}, 1000},
		"top fails":         {[]loadResult{pass, pass, pass, slowTail}, 750},
		"highest pass wins": {[]loadResult{pass, slowTail, pass, backlog}, 750},
		"none pass":         {[]loadResult{failed, slowTail, backlog, slowTail}, 0},
	} {
		if got := maxRate(wl, tc.steps); got != tc.want {
			t.Errorf("%s: maxRate = %v, want %v", name, got, tc.want)
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls every request that reaches the
// server in its first 50 ms. The two connections block, the requests due
// meanwhile queue in the generator, and each of them must be timed from
// its due time: timing from the send would show only the two stalled.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var gate atomic.Int64 // unix nanos at which the stall ends
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wait := time.Until(time.Unix(0, gate.Load())); wait > 0 {
			time.Sleep(wait)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()

	var due []time.Duration
	var reqs []request
	for i := 0; i < 200; i++ {
		due = append(due, time.Duration(i)*time.Millisecond)
		reqs = append(reqs, request{ID: i, Op: service.OpSimulate, Body: []byte("{}"), Items: 1})
	}
	gate.Store(time.Now().Add(50 * time.Millisecond).UnixNano())
	lr := openLoop(c, due, reqs, 250*time.Millisecond, nil)

	if lr.sent+lr.unsent != lr.arrived || lr.arrived != len(reqs) {
		t.Fatalf("sent %d + unsent %d != arrived %d", lr.sent, lr.unsent, lr.arrived)
	}
	if lr.failed != 0 {
		t.Fatalf("%d requests failed: %v", lr.failed, lr.errs)
	}
	delayed := 0
	for _, ms := range lr.lat {
		if ms >= 10 {
			delayed++
		}
	}
	if delayed < 20 {
		t.Errorf("%d requests took >= 10 ms; the requests queued behind the stall must count their wait", delayed)
	}
}

// flipPower wraps a handler and flips the lowest mantissa bit of every
// simulate response's power figure.
func flipPower(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/v1/simulate" && rec.Code == http.StatusOK {
			var resp service.SimulateResponse
			if err := json.Unmarshal(body, &resp); err == nil {
				resp.Power = math.Float64frombits(math.Float64bits(resp.Power) ^ 1)
				body, _ = json.Marshal(resp)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestOracleCatchesOneBitFlip(t *testing.T) {
	req := single(service.OpSimulate, service.SimulateRequest{Circuit: "adder", Width: 8, Cycles: 512, Seed: 7})
	for _, tc := range []struct {
		name    string
		wrap    func(http.Handler) http.Handler
		wantBad bool
	}{
		{"served as is", func(h http.Handler) http.Handler { return h }, false},
		{"one mantissa bit flipped", flipPower, true},
	} {
		srv := httptest.NewServer(tc.wrap(powerd.NewServer(powerd.Config{}).Handler()))
		c := newClient(srv.URL)
		body, err := c.do(req)
		c.close()
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = (&oracle{}).check(req, body)
		if (err != nil) != tc.wantBad {
			t.Errorf("%s: oracle error = %v, want mismatch %v", tc.name, err, tc.wantBad)
		}
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at a
// tiny scale. It checks outcomes and that every metric is reported,
// never how fast anything ran.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	opt := options{seed: 3, seconds: 0.3, setups: 1}
	for _, wl := range workloads {
		res, err := runMeasured(wl, opt)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, failed %d of %d: %v", wl.name, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, v)
			}
		}
		if v, ok := res.Metrics["error_ratio"]; !ok || v != 0 {
			t.Errorf("%s: error_ratio = %v (reported %v), want 0", wl.name, v, ok)
		}
		if v := res.Metrics["peak_heap_mb"]; !(v > 0) {
			t.Errorf("%s: peak_heap_mb = %v, want > 0", wl.name, v)
		}
		if _, ok := res.Metrics["max_rate_rps"]; ok != wl.open {
			t.Errorf("%s: max_rate_rps reported %v, want %v", wl.name, ok, wl.open)
		}
		if wl.rateName != "" && res.Metrics[wl.rateName] != res.Metrics["items_per_s"] {
			t.Errorf("%s: %s = %v, want items_per_s %v", wl.name, wl.rateName, res.Metrics[wl.rateName], res.Metrics["items_per_s"])
		}
		if v, ok := res.Metrics["model_err_pct"]; ok != wl.checkWarm || (ok && !(v > 0)) {
			t.Errorf("%s: model_err_pct = %v (reported %v)", wl.name, v, ok)
		}

		spans := t.TempDir() + "/spans.json"
		res, err = runTraced(wl, opt, spans)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct %v, failed %d: %v", wl.name, res.Correct, res.Failed, res.Notes)
		}
		for _, m := range perLayer {
			v, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, m.Name)
			}
			// Every layer's timing is measured on every workload, by its
			// own requests or by the probes. Self times are differences
			// of replays and may come out negative.
			timed := (m.Unit == "us" || m.Unit == "ms" || m.Unit == "ns") &&
				!strings.HasPrefix(m.Name, "bench.") && !strings.HasSuffix(m.Name, ".self_us")
			if timed && !(v > 0) {
				t.Errorf("%s: per-layer timing %s = %v, want > 0", wl.name, m.Name, v)
			}
		}
		if _, err := os.Stat(spans); err != nil {
			t.Errorf("%s: span file: %v", wl.name, err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workload and metric tables.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, want)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 6, 14, 9, 11, 7, 13}
	for name, tc := range map[string]struct {
		parent, change []float64
		moreFailures   bool
		want           string
	}{
		"faster everywhere":         {steady, scale(steady, 0.8), false, verdictImproved},
		"faster but fails more":     {steady, scale(steady, 0.8), true, verdictWithin},
		"faster on too few pairs":   {steady[:5], scale(steady[:5], 0.8), false, verdictWithin},
		"slightly slower":           {steady, scale(steady, 1.05), false, verdictWithin},
		"much slower":               {steady, scale(steady, 1.3), false, verdictWorse},
		"parent noisier than bound": {noisy, scale(noisy, 1.05), false, verdictUnresolved},
	} {
		if got := judge(lower, tc.parent, tc.change, tc.moreFailures).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", name, got, tc.want)
		}
	}
	higher := metricDef{Name: "items_per_s", Unit: "items/s", Better: "higher", Bound: 0.10}
	if got := judge(higher, steady, scale(steady, 1.3), false).verdict; got != verdictImproved {
		t.Errorf("higher is better: verdict %q, want %q", got, verdictImproved)
	}
	layer := metricDef{Name: "sim.run_us", Unit: "us", Better: "lower"}
	if got := judge(layer, steady, scale(steady, 1.3), false).verdict; got != verdictNone {
		t.Errorf("per-layer metric: verdict %q, want %q", got, verdictNone)
	}
}

func TestCompareRunsPairsByWorkload(t *testing.T) {
	mk := func(wl string, p50 float64) *result {
		return &result{Workload: wl, Correct: true, Metrics: map[string]float64{"p50_ms": p50}}
	}
	parent, change := map[string][]*result{}, map[string][]*result{}
	for i := 0; i < minPairs; i++ {
		parent["sweep-cold"] = append(parent["sweep-cold"], mk("sweep-cold", 1+0.01*float64(i%3)))
		change["sweep-cold"] = append(change["sweep-cold"], mk("sweep-cold", 0.5+0.01*float64(i%3)))
	}
	rows := compareRuns(parent, change)
	if len(rows) != 1 || rows[0].workload != "sweep-cold" || rows[0].metric != "p50_ms" {
		t.Fatalf("rows = %+v, want one sweep-cold p50_ms row", rows)
	}
	if rows[0].verdict != verdictImproved || rows[0].won != minPairs {
		t.Errorf("row = %+v, want improved with every pair won", rows[0])
	}
}
