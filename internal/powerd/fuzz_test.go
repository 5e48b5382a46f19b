package powerd

import (
	"bytes"
	"encoding/json"
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
