package jobs

import (
	"fmt"
	"hash/crc64"
	"math"

	"hlpower/internal/memo"
	"hlpower/internal/recipe"
)

// Snapshot envelope: an 8-byte magic (which doubles as the format
// version), an 8-byte CRC64/ECMA of the payload, then the payload in
// the memo package's type-tagged canonical encoding. The CRC catches
// torn or bit-rotted files; the type tags catch structurally corrupt
// payloads; both fail closed with *SnapshotError — a damaged
// checkpoint must never panic or silently resume the wrong state.
const snapMagic = "HLPJOB1\x00"

var crcTable = crc64.MakeTable(crc64.ECMA)

// SnapshotError is the typed failure for undecodable snapshots.
type SnapshotError struct {
	Reason string
}

func (e *SnapshotError) Error() string { return "jobs: bad snapshot: " + e.Reason }

// Job phases.
const (
	PhaseRunning  = "running"
	PhaseDone     = "done"
	PhaseFailed   = "failed"
	PhaseCanceled = "canceled"
)

// Params is everything that defines a job's work — including the
// budget-relevant evaluation limits, so a resumed job replays the
// exact budget trajectory of the original even on a server configured
// differently.
type Params struct {
	Spec          recipe.Spec
	Token         string
	Seed          int64
	Candidates    int   // search steps (candidate evaluations)
	EvalCycles    int   // scoring stimulus length
	VerifyCycles  int   // equivalence stimulus length
	MaxRecipeLen  int   // longest random recipe drawn
	EvalSteps     int64 // per-candidate budget
	CheckInterval int64
	MaxTotalSteps int64 // aggregate step ceiling across candidates (0 = none)
}

func (p Params) encodeTo(e *memo.Enc) {
	p.Spec.EncodeTo(e)
	e.String(p.Token)
	e.Int64(p.Seed)
	e.Int(p.Candidates)
	e.Int(p.EvalCycles)
	e.Int(p.VerifyCycles)
	e.Int(p.MaxRecipeLen)
	e.Int64(p.EvalSteps)
	e.Int64(p.CheckInterval)
	e.Int64(p.MaxTotalSteps)
}

func (p *Params) decodeFrom(d *memo.Dec) {
	p.Spec.DecodeFrom(d)
	p.Token = d.String()
	p.Seed = d.Int64()
	p.Candidates = int(d.Int64())
	p.EvalCycles = int(d.Int64())
	p.VerifyCycles = int(d.Int64())
	p.MaxRecipeLen = int(d.Int64())
	p.EvalSteps = d.Int64()
	p.CheckInterval = d.Int64()
	p.MaxTotalSteps = d.Int64()
}

// Key is the job's content identity: every field of Params, hashed
// canonically. It names the job (the job id is its hex form), makes
// resubmission idempotent by construction, and is what cluster mode
// hashes onto the ring to pick the job's owner.
func (p Params) Key() memo.Key {
	return memo.KeyOf(func(e *memo.Enc) {
		e.String("powerd/optimize/v1")
		p.encodeTo(e)
	})
}

// State is the complete checkpointed search state. Together with the
// deterministic candidate generator it is sufficient to resume a job
// mid-search and converge to a Float64bits-identical best recipe and
// score versus an uninterrupted run.
type State struct {
	ID     string
	Params Params

	Step         int // next candidate index to evaluate (the cursor)
	BaselineDone bool
	BaseScore    float64
	BestScore    float64
	BestRecipe   []string

	Evaluated int64
	Degraded  int64
	CacheHits int64
	StepsUsed int64

	Phase     string // running | done | failed | canceled
	Exhausted bool   // MaxTotalSteps ceiling ended the search early
	Err       string // terminal failure detail (phase == failed)
	LastError string // most recent degraded-candidate error, for observability
}

// maxSnapshotRecipe bounds decoded recipe lengths so a corrupt length
// field cannot trigger a huge allocation.
const maxSnapshotRecipe = 1 << 12

// EncodeState serializes a checkpoint snapshot.
func EncodeState(st *State) []byte {
	e := memo.NewEnc()
	e.String(st.ID)
	st.Params.encodeTo(e)
	e.Int(st.Step)
	e.Bool(st.BaselineDone)
	e.Float64(st.BaseScore)
	e.Float64(st.BestScore)
	e.Int(len(st.BestRecipe))
	for _, name := range st.BestRecipe {
		e.String(name)
	}
	e.Int64(st.Evaluated)
	e.Int64(st.Degraded)
	e.Int64(st.CacheHits)
	e.Int64(st.StepsUsed)
	e.String(st.Phase)
	e.Bool(st.Exhausted)
	e.String(st.Err)
	e.String(st.LastError)
	payload := e.Data()

	out := make([]byte, 0, 16+len(payload))
	out = append(out, snapMagic...)
	var crc [8]byte
	sum := crc64.Checksum(payload, crcTable)
	for i := 0; i < 8; i++ {
		crc[i] = byte(sum >> uint(56-8*i))
	}
	out = append(out, crc[:]...)
	return append(out, payload...)
}

// DecodeState parses and validates a checkpoint snapshot. Any
// corruption — bad magic, CRC mismatch, truncation, tag mismatch,
// trailing bytes, out-of-range fields — yields a *SnapshotError.
func DecodeState(b []byte) (*State, error) {
	if len(b) < 16 {
		return nil, &SnapshotError{Reason: fmt.Sprintf("%d bytes, need at least 16", len(b))}
	}
	if string(b[:8]) != snapMagic {
		return nil, &SnapshotError{Reason: "bad magic"}
	}
	var want uint64
	for i := 0; i < 8; i++ {
		want = want<<8 | uint64(b[8+i])
	}
	payload := b[16:]
	if got := crc64.Checksum(payload, crcTable); got != want {
		return nil, &SnapshotError{Reason: fmt.Sprintf("crc mismatch %016x != %016x", got, want)}
	}
	d := memo.DecBytes(payload)
	st := &State{}
	st.ID = d.String()
	st.Params.decodeFrom(d)
	st.Step = int(d.Int64())
	st.BaselineDone = d.Bool()
	st.BaseScore = d.Float64()
	st.BestScore = d.Float64()
	n := int(d.Int64())
	if d.Err() == nil {
		if n < 0 || n > maxSnapshotRecipe {
			return nil, &SnapshotError{Reason: fmt.Sprintf("recipe length %d out of range", n)}
		}
		st.BestRecipe = make([]string, n)
		for i := range st.BestRecipe {
			st.BestRecipe[i] = d.String()
		}
	}
	st.Evaluated = d.Int64()
	st.Degraded = d.Int64()
	st.CacheHits = d.Int64()
	st.StepsUsed = d.Int64()
	st.Phase = d.String()
	st.Exhausted = d.Bool()
	st.Err = d.String()
	st.LastError = d.String()
	if err := d.Err(); err != nil {
		return nil, &SnapshotError{Reason: err.Error()}
	}
	if !d.Done() {
		return nil, &SnapshotError{Reason: "trailing bytes after payload"}
	}
	switch st.Phase {
	case PhaseRunning, PhaseDone, PhaseFailed, PhaseCanceled:
	default:
		return nil, &SnapshotError{Reason: fmt.Sprintf("unknown phase %q", st.Phase)}
	}
	if st.ID != st.Params.Key().String() {
		return nil, &SnapshotError{Reason: "id does not match params key"}
	}
	if st.Step < 0 || st.Step > st.Params.Candidates {
		return nil, &SnapshotError{Reason: fmt.Sprintf("cursor %d out of range [0,%d]", st.Step, st.Params.Candidates)}
	}
	if math.IsNaN(st.BestScore) || math.IsNaN(st.BaseScore) {
		return nil, &SnapshotError{Reason: "NaN score"}
	}
	return st, nil
}
