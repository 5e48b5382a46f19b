package powerd

import (
	"bytes"
	"encoding/binary"
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
// payloads, 400 with an input item carrying the same message, 503
// budget-exceeded with a budget item. The server keeps no memo and a
// small step allowance, so large inputs trip on steps, never on the
// deadline, and every call computes.
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
	seed([]wireRequest{
		{"trailing data", "/v1/simulate", `{"circuit":"adder","width":4,"cycles":64,"seed":1} trailing`},
		// Requests that fail more than one check pin the check order:
		// the width before the circuit, rank's cycles before its width,
		// a bdd's vars before its function, and a predict's streams
		// before its model.
		{"width 99, unknown circuit", "/v1/simulate", `{"circuit":"nonsense","width":99,"cycles":1,"seed":1}`},
		{"width 99, cycles 1", "/v1/rank", `{"width":99,"cycles":1,"seed":1}`},
		{"vars 99, unknown function", "/v1/bdd", `{"function":"bogus","vars":99}`},
		{"train 1, unknown model", "/v1/predict", `{"circuit":"adder","width":4,"model":"bogus","train":1,"eval":64}`},
	})
	s := NewServer(memoOff(wireConfig()))
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
		if kind == service.BatchErrInput {
			var e errorBody
			if err := json.Unmarshal(single, &e); err != nil || e.Error != item.Error.Message {
				t.Fatalf("%s %q: single error %s, batch item error %q", op, body, single, item.Error.Message)
			}
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

// The vocabularies FuzzMemoEquivalence draws names from, each with one
// name the server does not know.
var (
	fuzzCircuits  = []string{"adder", "subtractor", "multiplier", "comparator", "carry-select", "nonsense"}
	fuzzFunctions = []string{"parity", "majority", "and", "bogus"}
	fuzzModels    = []string{"pfa", "dbt", "bitwise", "io", "bogus"}
)

// memoFuzzRecord is the size of one FuzzMemoEquivalence request record:
// op, name, width, cycles (2 bytes), eval (2 bytes), model, seed.
const memoFuzzRecord = 9

// memoFuzzRequest decodes one record into a single endpoint's path and
// request. Widths straddle every valid range (-1..18) and cycle counts
// run to 65,535; wireConfig's step allowance keeps each request small
// however large its shape, since work past it trips.
func memoFuzzRequest(r []byte) (string, any) {
	width := int(r[2]%20) - 1
	cycles, eval := int(binary.BigEndian.Uint16(r[3:])), int(binary.BigEndian.Uint16(r[5:]))
	seed := int64(r[8])
	switch op := fuzzOps[int(r[0])%len(fuzzOps)]; op {
	case service.OpSimulate:
		return "/v1/" + op, simulateRequest{Circuit: fuzzCircuits[int(r[1])%len(fuzzCircuits)], Width: width, Cycles: cycles, Seed: seed}
	case service.OpRank:
		return "/v1/" + op, rankRequest{Width: width, Cycles: cycles, Seed: seed}
	case service.OpBDD:
		return "/v1/" + op, bddRequest{Function: fuzzFunctions[int(r[1])%len(fuzzFunctions)], Vars: width, AllowDegraded: r[7]%2 == 1}
	default:
		return "/v1/" + op, predictRequest{Circuit: fuzzCircuits[int(r[1])%len(fuzzCircuits)], Width: width,
			Model: fuzzModels[int(r[7])%len(fuzzModels)], Train: cycles, Eval: eval, Seed: seed}
	}
}

// FuzzMemoEquivalence checks that the estimate cache never changes an
// answer. Each input decodes into a sequence of two to four single
// requests, posted in order to a fresh memo-on and a fresh memo-off
// wireConfig server: every answer must match in status and in body,
// apart from the per-call "cached" flag. Entries stored by earlier requests of a
// sequence (whole responses, and predict's evaluation traces) are what
// later requests replay, so a replay that skips a budget charge shows
// up as a 200 where the memo-off server trips.
func FuzzMemoEquivalence(f *testing.F) {
	// io, pfa, io, io predicts of adder/6 over 342-cycle streams: the io
	// calls trip the step allowance only if the evaluation trace the
	// others replay is charged.
	predict := func(model byte) []byte { return []byte{3, 0, 7, 1, 86, 1, 86, model, 1} }
	f.Add(slices.Concat(predict(3), predict(0), predict(3), predict(3)))
	// The limits transcript's rank, {"width":16,"cycles":20000,"seed":2},
	// twice: a ranking that trips is never stored.
	rank := []byte{1, 0, 17, 78, 32, 0, 0, 0, 2}
	f.Add(slices.Concat(rank, rank))

	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/memoFuzzRecord, 4)
		if n < 2 {
			return
		}
		// Fresh servers per input, so a failure replays from its input
		// alone.
		on, off := NewServer(wireConfig()), NewServer(memoOff(wireConfig()))
		defer drainServer(t, on)
		defer drainServer(t, off)
		for i := 0; i < n; i++ {
			path, req := memoFuzzRequest(data[i*memoFuzzRecord:])
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			code, got := serveRaw(t, on, path, body)
			wcode, want := serveRaw(t, off, path, body)
			if code != wcode || !bytes.Equal(uncachedBody(t, got), uncachedBody(t, want)) {
				t.Fatalf("request %d, %s %s: memo on %d %s, memo off %d %s", i+1, path, body, code, got, wcode, want)
			}
		}
	})
}
