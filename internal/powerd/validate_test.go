package powerd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hlpower/internal/cluster"
	"hlpower/internal/service"
)

// invalidRequests are, per single endpoint, requests that fail
// validation: body(n) is the nth distinct request and want(n) the exact
// 400 body it answers.
var invalidRequests = []struct {
	op         string
	body, want func(n int) string
}{
	{service.OpSimulate,
		func(n int) string { return fmt.Sprintf(`{"circuit":"adder","width":99,"cycles":64,"seed":%d}`, n) },
		func(int) string { return `{"error":"service.module: width 99 out of range [2,16]","kind":"input"}` }},
	{service.OpRank,
		func(n int) string { return fmt.Sprintf(`{"width":99,"cycles":64,"seed":%d}`, n) },
		func(int) string { return `{"error":"service.module: width 99 out of range [2,16]","kind":"input"}` }},
	{service.OpBDD,
		func(n int) string { return fmt.Sprintf(`{"function":"parity","vars":%d}`, 17+n) },
		func(n int) string {
			return fmt.Sprintf(`{"error":"service.bdd: vars %d out of range [1,16]","kind":"input"}`, 17+n)
		}},
	{service.OpPredict,
		func(n int) string {
			return fmt.Sprintf(`{"circuit":"adder","width":6,"model":"bogus","train":64,"eval":64,"seed":%d}`, n)
		},
		func(int) string { return `{"error":"service.predict: unknown model \"bogus\"","kind":"input"}` }},
}

// TestInvalidRequestsSkipCacheAndRing: a single request is validated
// before it has a key, so an invalid one answers 400 without touching
// the estimate cache, and in a ring without being forwarded to the
// owner of the key it would have had.
func TestInvalidRequestsSkipCacheAndRing(t *testing.T) {
	s := NewServer(wireConfig())
	before := s.Snapshot().Memo
	for _, tc := range invalidRequests {
		for n := 0; n < 1000; n++ {
			code, got := serveRaw(t, s, "/v1/"+tc.op, []byte(tc.body(n)))
			if want := tc.want(n) + "\n"; code != http.StatusBadRequest || string(got) != want {
				t.Fatalf("%s %s: %d %s, want 400 %s", tc.op, tc.body(n), code, got, want)
			}
		}
	}
	if after := s.Snapshot().Memo; after != before {
		t.Fatalf("invalid requests touched the estimate cache:\n before %+v\n after  %+v", before, after)
	}

	ids := []string{"n0", "n1"}
	nodes := startRing(t, wireConfig(), ids)
	ring := cluster.NewRing(ids, 0)
	front := httptest.NewServer(nodes[0].Handler())
	t.Cleanup(front.Close)
	for _, tc := range invalidRequests {
		if tc.op == service.OpBDD {
			continue // a bdd key hashes the truth table, which an invalid request has none of
		}
		// Pick a request whose key, were it keyed unvalidated, the peer
		// would own.
		owner := func(n int) string {
			it, _ := decodeFuzzItem(tc.op, []byte(tc.body(n)))
			return ring.Owner(nodes[0].itemKey(it, nil))
		}
		n := 0
		for owner(n) != "n1" {
			n++
		}
		resp, err := front.Client().Post(front.URL+"/v1/"+tc.op, "application/json", strings.NewReader(tc.body(n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(ServedByHeader) != "" {
			t.Fatalf("%s %s via the non-owner: %d served by %q, want a local 400", tc.op, tc.body(n),
				resp.StatusCode, resp.Header.Get(ServedByHeader))
		}
	}
	if got := nodes[0].Snapshot().Forwarded; got != 0 {
		t.Fatalf("front forwarded %d invalid requests, want 0", got)
	}
}

// TestUnfittablePredictNeverOpensBreaker: a training stream too short
// for the model's regressors makes the fit singular. That is the
// request's fault: it answers 400 input, and other clients' predicts
// keep being served.
func TestUnfittablePredictNeverOpensBreaker(t *testing.T) {
	s := NewServer(DefaultConfig())
	unfittable := func(seed int) []byte {
		return []byte(fmt.Sprintf(`{"circuit":"adder","width":16,"model":"dbt","train":2,"eval":64,"seed":%d}`, seed))
	}
	for seed := 1; seed <= 5; seed++ {
		if code, body := serveRaw(t, s, "/v1/predict", unfittable(seed)); code != http.StatusBadRequest ||
			!strings.Contains(string(body), `"kind":"input"`) {
			t.Fatalf("unfittable predict, seed %d: %d %s, want 400 input", seed, code, body)
		}
	}
	valid := `{"circuit":"adder","width":16,"model":"pfa","train":64,"eval":64,"seed":1}`
	if code, body := serveRaw(t, s, "/v1/predict", []byte(valid)); code != http.StatusOK {
		t.Fatalf("valid predict after unfittable ones: %d %s", code, body)
	}
	code, raw := serveRaw(t, s, "/v1/batch", []byte(`{"items":[{"op":"predict","predict":`+string(unfittable(6))+`}]}`))
	if code != http.StatusOK || !strings.Contains(string(raw), `"error":{"kind":"input"`) {
		t.Fatalf("unfittable batch item: %d %s, want kind input", code, raw)
	}
}
