package powerd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"hlpower/internal/service"
)

// fuzzOps are the single endpoints' ops, indexed by FuzzServeItem's op
// byte.
var fuzzOps = []string{service.OpSimulate, service.OpRank, service.OpBDD, service.OpPredict}

// FuzzServeItem pushes raw bodies through the item pipeline from both
// transports. Each input is an op and a JSON body: the body is POSTed to
// the op's single endpoint and, when it decodes as the op's request
// under that endpoint's rules, as the one item of a /v1/batch. Neither
// may answer 500 or a body that does not decode, and both must land in
// the same outcome class: 200 with no item error and identical
// payloads, 400 with an input item, 503 budget-exceeded with a budget
// item, 503 breaker-open with an unavailable item. The server keeps no
// memo and a small step allowance, so large inputs trip on steps, never
// on the deadline, and every call computes.
func FuzzServeItem(f *testing.F) {
	seed := func(reqs []wireRequest) {
		for _, rq := range reqs {
			f.Add(uint8(slices.Index(fuzzOps, strings.TrimPrefix(rq.path, "/v1/"))), []byte(rq.body))
		}
	}
	for _, seq := range wireSequences {
		seed(seq.reqs)
	}
	seed(wireLimitSequence)
	seed([]wireRequest{{"trailing data", "/v1/simulate", `{"circuit":"adder","width":4,"cycles":64,"seed":1} trailing`}})
	cfg := wireConfig()
	cfg.MemoMaxBytes = -1
	s := NewServer(cfg)
	f.Fuzz(func(t *testing.T, opIdx uint8, body []byte) {
		op := fuzzOps[int(opIdx)%len(fuzzOps)]
		code, single := serveRaw(t, s, "/v1/"+op, body)
		if code == http.StatusInternalServerError {
			t.Fatalf("%s %q: 500 %s", op, body, single)
		}
		it, ok := decodeFuzzItem(op, body)
		if !ok {
			if code != http.StatusBadRequest {
				t.Fatalf("%s %q: undecodable body answered %d %s", op, body, code, single)
			}
			return
		}
		batchBody, err := json.Marshal(service.BatchRequest{Items: []service.BatchItem{it}})
		if err != nil {
			t.Fatal(err)
		}
		bcode, raw := serveRaw(t, s, "/v1/batch", batchBody)
		var batch service.BatchResponse
		if err := json.Unmarshal(raw, &batch); bcode != http.StatusOK || err != nil || len(batch.Items) != 1 {
			t.Fatalf("%s %q: batch answered %d %s", op, body, bcode, raw)
		}
		item := batch.Items[0]
		kind := ""
		if item.Error != nil {
			kind = item.Error.Kind
		}
		if want := singleClass(t, code, single); kind != want {
			t.Fatalf("%s %q: single %d %s, batch item %s: %+v", op, body, code, single, kind, item)
		}
		if kind != "" {
			return
		}
		// Go's JSON encoder writes the shortest round-trip form of a
		// float, so equal encodings mean Float64bits-equal figures.
		got, want := comparablePayload(t, op, single), comparablePayload(t, op, payloadJSON(t, item))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %q: single payload %s, batch payload %s", op, body, got, want)
		}
	})
}

// serveRaw POSTs body to path through the server's handler and checks
// that the response body decodes as JSON.
func serveRaw(t *testing.T, s *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s %q: %d with an undecodable body %q", path, body, rec.Code, rec.Body.Bytes())
	}
	return rec.Code, rec.Body.Bytes()
}

// decodeFuzzItem decodes body as op's request under the single
// endpoint's rules (one JSON value, no unknown fields) and wraps it as
// a batch item.
func decodeFuzzItem(op string, body []byte) (service.BatchItem, bool) {
	r := httptest.NewRequest(http.MethodPost, "/v1/"+op, bytes.NewReader(body))
	it, _, err := decodeSingle(r, op)
	return it, err == nil
}

// singleClass maps a single endpoint's answer onto the batch error kind
// the same outcome carries ("" for success).
func singleClass(t *testing.T, code int, body []byte) string {
	var e errorBody
	if code != http.StatusOK {
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body %q: %v", body, err)
		}
	}
	switch {
	case code == http.StatusOK:
		return ""
	case code == http.StatusBadRequest:
		return service.BatchErrInput
	case code == http.StatusServiceUnavailable && e.Kind == "budget-exceeded":
		return service.BatchErrBudget
	case code == http.StatusServiceUnavailable && e.Kind == "breaker-open":
		return service.BatchErrUnavailable
	}
	t.Fatalf("unexpected single answer %d %s", code, body)
	return ""
}

// payloadJSON encodes a batch item's payload as its single endpoint
// would.
func payloadJSON(t *testing.T, item service.BatchItemResult) []byte {
	raw, err := json.Marshal(payload(item))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// comparablePayload re-encodes a payload of op with the per-call
// execution flag (cached) cleared.
func comparablePayload(t *testing.T, op string, raw []byte) []byte {
	var p any
	switch op {
	case service.OpSimulate:
		p = new(simulateResponse)
	case service.OpRank:
		p = new(rankResponse)
	case service.OpBDD:
		p = new(bddResponse)
	default:
		p = new(predictResponse)
	}
	if err := json.Unmarshal(raw, p); err != nil {
		t.Fatalf("%s payload %q: %v", op, raw, err)
	}
	switch p := p.(type) {
	case *simulateResponse:
		p.Cached = false
	case *rankResponse:
		p.Cached = false
	case *bddResponse:
		p.Cached = false
	case *predictResponse:
		p.Cached = false
	}
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzClusterCand posts raw bodies to the peer candidate endpoint
// (POST /cluster/v1/cand), whose bodies come from other ring nodes. It
// answers 200, 400 or a 503 budget trip, never anything else, and a
// 200's power is Float64bits-equal to service.Local's EvalCand on the
// same fields. The server keeps no memo and a small step allowance, as
// in FuzzServeItem, so every call computes and large inputs trip on
// steps, never on the deadline.
func FuzzClusterCand(f *testing.F) {
	for _, seed := range []string{
		`{"name":"adder","width":5,"cycles":64,"seed":5}`,
		`{"name":"carry-select","width":16,"cycles":20000,"seed":2}`,
		`{"name":"subtractor","width":4,"cycles":100,"seed":-1}`,
		`{"name":"comparator","width":2,"cycles":2}`,
		`{"name":"nonsense","width":4,"cycles":64}`,
		`{"name":"adder","width":99,"cycles":64}`,
		`{"name":"adder","width":4,"cycles":1}`,
		`{"name":"adder","width":4,"cycles":64,"x":1}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	cfg := wireConfig()
	cfg.MemoMaxBytes = -1
	s := NewServer(cfg)
	var ref service.Local
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.handleClusterCand(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/cand", bytes.NewReader(body)))
		switch singleClass(t, rec.Code, rec.Body.Bytes()) {
		case service.BatchErrInput, service.BatchErrBudget:
			return
		case service.BatchErrUnavailable:
			t.Fatalf("%q: answered %d %s", body, rec.Code, rec.Body.Bytes())
		}
		var req clusterCandRequest
		if err := decode(httptest.NewRequest(http.MethodPost, "/cluster/v1/cand", bytes.NewReader(body)), &req); err != nil {
			t.Fatalf("%q: 200 for a body that does not decode: %v", body, err)
		}
		var got service.CandEstimate
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%q: 200 body %q: %v", body, rec.Body.Bytes(), err)
		}
		want, _, err := ref.EvalCand(nil, req.Name, service.RankRequest{Width: req.Width, Cycles: req.Cycles, Seed: req.Seed})
		if err != nil {
			t.Fatalf("%q: 200, but EvalCand fails: %v", body, err)
		}
		if math.Float64bits(got.Power) != math.Float64bits(want) || got.Degraded || got.Cached {
			t.Fatalf("%q: answered %+v, EvalCand power %v", body, got, want)
		}
	})
}
