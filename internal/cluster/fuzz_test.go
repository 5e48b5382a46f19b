package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"hlpower/internal/resilience"
)

// FuzzGossipHandler posts raw bodies to the gossip endpoint, which
// decodes whatever a peer (or anything else that reaches the port)
// sends. It answers 204 or 400 and never panics, and no message changes
// the ring membership or the configured peer set, whatever its From and
// View name: unknown IDs, this node's own ID, huge sequences.
func FuzzGossipHandler(f *testing.F) {
	for _, seed := range []string{
		`{"from":"b","view":{"a":1,"b":2,"c":3},"sent_at_unix_nano":1700000000000000000}`,
		`{"from":"intruder","view":{"intruder":9,"b":18446744073709551615}}`,
		`{"from":"a","view":{"a":5,"":1}}`,
		`{"from":"c","view":null,"sent_at_unix_nano":-1}`,
		`{"from":1}`,
		`{} trailing`,
		`null`,
		`[]`,
		``,
		`{"from":"b","view":{"b":2}}{"from":"c","view":{"c":1}}`,
	} {
		f.Add([]byte(seed))
	}
	n, err := New(Config{
		Self:  Peer{ID: "a"},
		Peers: []Peer{{ID: "b", URL: "http://b"}, {ID: "c", URL: "http://c"}},
		Clock: resilience.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		f.Fatal(err)
	}
	h := n.Handler()
	members, peers := n.Stats().Members, peerSet(n.Stats())
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/gossip", bytes.NewReader(body)))
		if rec.Code != http.StatusNoContent && rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: answered %d", body, rec.Code)
		}
		st := n.Stats()
		if !slices.Equal(st.Members, members) {
			t.Fatalf("%q: members %v, want %v", body, st.Members, members)
		}
		if got := peerSet(st); !slices.Equal(got, peers) {
			t.Fatalf("%q: peers %v, want %v", body, got, peers)
		}
	})
}

// peerSet lists the peers a stats snapshot reports, in its ID order.
func peerSet(st Stats) []Peer {
	var out []Peer
	for _, p := range st.Peers {
		out = append(out, Peer{ID: p.ID, URL: p.URL})
	}
	return out
}
