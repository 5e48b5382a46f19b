package service

import (
	"context"
	"errors"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
)

// Batch pipeline. A batch is thousands of heterogeneous estimation
// items submitted as one request. The pipeline partitions them into
// groups that share compiled artifacts — every simulate or predict item
// over one (circuit, width) shares a single sim.Compile (netlist tables
// + packed program + pooled kernel scratch), bdd items share the
// materialized truth table — so per-request setup cost is paid once
// per group instead of once per item. Items are validated
// individually: a malformed item becomes a typed per-item error and
// never poisons its group, and a failed computation (budget trip,
// injected fault) fails only its own item. The serving layer
// grafts policy in through BatchHooks: per-item budgets, memoization
// and singleflight, cluster routing of whole groups, and streaming
// emission.

// Batch ops, also the wire values of BatchItem.Op.
const (
	OpSimulate = "simulate"
	OpRank     = "rank"
	OpBDD      = "bdd"
	OpPredict  = "predict"
)

// MaxBatchItems bounds one batch request; transports reject larger
// batches before partitioning.
const MaxBatchItems = 10_000

// Batch error kinds, mirroring the HTTP error taxonomy of the serving
// layer so a per-item error and a whole-request error classify alike.
const (
	BatchErrInput    = "input"    // malformed item (never retryable)
	BatchErrBudget   = "budget"   // item or batch budget exhausted
	BatchErrCanceled = "canceled" // caller gone before the item ran
	BatchErrInternal = "internal"
)

// BatchItem is one estimation request inside a batch: an op tag plus
// exactly the matching payload.
type BatchItem struct {
	// ID is an optional caller-chosen correlation tag echoed on the
	// item's result.
	ID       string           `json:"id,omitempty"`
	Op       string           `json:"op"`
	Simulate *SimulateRequest `json:"simulate,omitempty"`
	Rank     *RankRequest     `json:"rank,omitempty"`
	BDD      *BDDRequest      `json:"bdd,omitempty"`
	Predict  *PredictRequest  `json:"predict,omitempty"`
}

// BatchRequest is the batch wire type.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchError is one item's typed failure.
type BatchError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// BatchItemResult is one item's outcome: the payload matching the op,
// or a typed error — never both.
type BatchItemResult struct {
	// Index is the item's position in the submitted batch; results are
	// always attributable even when streamed out of submission order.
	Index    int               `json:"index"`
	ID       string            `json:"id,omitempty"`
	Op       string            `json:"op,omitempty"`
	Simulate *SimulateResponse `json:"simulate,omitempty"`
	Rank     *RankResponse     `json:"rank,omitempty"`
	BDD      *BDDResponse      `json:"bdd,omitempty"`
	Predict  *PredictResponse  `json:"predict,omitempty"`
	Error    *BatchError       `json:"error,omitempty"`
}

// Cached reports whether the item's payload was replayed from an
// estimate cache.
func (r *BatchItemResult) Cached() bool {
	switch {
	case r.Simulate != nil:
		return r.Simulate.Cached
	case r.Rank != nil:
		return r.Rank.Cached
	case r.BDD != nil:
		return r.BDD.Cached
	case r.Predict != nil:
		return r.Predict.Cached
	}
	return false
}

// BatchResponse is the buffered batch wire type. Items holds one result
// per submitted item, in submission order.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
	// Groups is how many shared-artifact groups the batch partitioned
	// into; Failed and Cached count items, StepsUsed is the aggregate
	// simulation step charge of every locally computed item.
	Groups    int   `json:"groups"`
	Failed    int   `json:"failed"`
	Cached    int   `json:"cached"`
	StepsUsed int64 `json:"steps_used"`
}

// BatchGroup is one partition cell: the items (by batch index, in
// submission order) that share one set of compiled artifacts. Exactly
// one of the Circuit/Width and Function/Vars pairs is meaningful,
// selected by Op; Rank groups key on Width alone.
type BatchGroup struct {
	Op       string `json:"op"`
	Circuit  string `json:"circuit,omitempty"`
	Width    int    `json:"width,omitempty"`
	Function string `json:"function,omitempty"`
	Vars     int    `json:"vars,omitempty"`
	Items    []int  `json:"items"`
}

// BatchPlan is the outcome of partitioning: groups in first-appearance
// order, plus the items rejected by validation, already carrying their
// typed errors. Every submitted index appears exactly once — in one
// group's Items or in Bad.
type BatchPlan struct {
	Groups []BatchGroup
	Bad    []BatchItemResult
}

// KnownFunction reports whether name is a servable boolean function
// (the set TruthTable materializes).
func KnownFunction(name string) bool {
	switch name {
	case "parity", "majority", "and":
		return true
	}
	return false
}

// KnownModel reports whether name is a servable macro-model type (the
// set Predict fits).
func KnownModel(name string) bool {
	switch name {
	case "pfa", "dbt", "bitwise", "io":
		return true
	}
	return false
}

// Validate is the one request check. Every transport runs it before it
// derives a key: PartitionBatch on each batch item, and powerd on each
// single request right after decoding, so an invalid request never
// reaches an estimate cache or a ring peer. It runs the engine's own
// checks in the engine's order, so it fails with exactly the error the
// engine would; it is cheap range and vocabulary validation, with no
// artifact construction. Anything it accepts either computes or fails
// with the engine's own typed error.
func Validate(it BatchItem) error {
	switch it.Op {
	case OpSimulate:
		if it.Simulate == nil {
			return hlerr.Errorf("service.batch", "op %q without simulate payload", it.Op)
		}
		if err := checkModule(it.Simulate.Circuit, it.Simulate.Width); err != nil {
			return err
		}
		return CheckCycles(it.Simulate.Cycles)
	case OpRank:
		if it.Rank == nil {
			return hlerr.Errorf("service.batch", "op %q without rank payload", it.Op)
		}
		if err := CheckCycles(it.Rank.Cycles); err != nil {
			return err
		}
		// Rank's first candidate, the adder, is the first to reject a
		// bad width.
		return checkModule("adder", it.Rank.Width)
	case OpBDD:
		if it.BDD == nil {
			return hlerr.Errorf("service.batch", "op %q without bdd payload", it.Op)
		}
		return checkTable(it.BDD.Function, it.BDD.Vars)
	case OpPredict:
		if it.Predict == nil {
			return hlerr.Errorf("service.batch", "op %q without predict payload", it.Op)
		}
		if err := checkModule(it.Predict.Circuit, it.Predict.Width); err != nil {
			return err
		}
		return checkPredict(*it.Predict)
	default:
		return hlerr.Errorf("service.batch", "unknown op %q", it.Op)
	}
}

// groupCell derives the item's partition cell. Call only on validated
// items.
func groupCell(it BatchItem) BatchGroup {
	switch it.Op {
	case OpSimulate:
		return BatchGroup{Op: it.Op, Circuit: it.Simulate.Circuit, Width: it.Simulate.Width}
	case OpRank:
		return BatchGroup{Op: it.Op, Width: it.Rank.Width}
	case OpBDD:
		return BatchGroup{Op: it.Op, Function: it.BDD.Function, Vars: it.BDD.Vars}
	default: // OpPredict
		return BatchGroup{Op: it.Op, Circuit: it.Predict.Circuit, Width: it.Predict.Width}
	}
}

// PartitionBatch validates every item and partitions the valid ones
// into shared-artifact groups. The plan is deterministic: groups appear
// in order of their first item, each group's Items ascend, and every
// submitted index lands in exactly one group or exactly one Bad entry —
// the invariants FuzzBatchRequest pins.
func PartitionBatch(items []BatchItem) BatchPlan {
	type cellKey struct {
		op, name string
		n        int
	}
	var plan BatchPlan
	cells := make(map[cellKey]int) // cell -> index into plan.Groups
	for i, it := range items {
		if err := Validate(it); err != nil {
			plan.Bad = append(plan.Bad, BatchItemResult{
				Index: i, ID: it.ID, Op: it.Op,
				Error: &BatchError{Kind: BatchErrInput, Message: err.Error()},
			})
			continue
		}
		cell := groupCell(it)
		key := cellKey{op: cell.Op, name: cell.Circuit + cell.Function, n: cell.Width + cell.Vars}
		gi, ok := cells[key]
		if !ok {
			gi = len(plan.Groups)
			cells[key] = gi
			plan.Groups = append(plan.Groups, cell)
		}
		plan.Groups[gi].Items = append(plan.Groups[gi].Items, i)
	}
	return plan
}

// GroupRunner holds one group's compiled artifacts and computes its
// items. Safe for concurrent item runs (the artifacts are read-only and
// the kernel scratch pool is concurrency-safe). A single request runs
// as a group of one (see ItemRunner).
type GroupRunner struct {
	l   *Local
	g   BatchGroup
	art *artifact // simulate, predict
	tt  []bool    // bdd
}

// NewGroupRunner compiles the shared artifacts of one partition group:
// the module and packed-kernel program for simulate and predict groups,
// the materialized truth table for bdd groups. An error fails the whole
// group — by construction it would fail every item identically.
func (l *Local) NewGroupRunner(g BatchGroup) (*GroupRunner, error) {
	r := &GroupRunner{l: l, g: g}
	var err error
	switch g.Op {
	case OpSimulate, OpPredict:
		// The shared artifact cache makes group compilation a map hit on
		// hot netlists: the compiled (fused) program and its scratch pool
		// persist across batches and are shared with the single-request
		// and rank paths.
		if r.art, err = l.artifactFor(g.Circuit, g.Width); err != nil {
			return nil, err
		}
	case OpBDD:
		if r.tt, err = TruthTable(g.Function, g.Vars); err != nil {
			return nil, err
		}
	case OpRank:
		// Rank items share no precompiled artifact: Rank resolves its
		// three candidates' artifacts itself.
	default:
		return nil, hlerr.Errorf("service.batch", "unknown op %q", g.Op)
	}
	return r, nil
}

// ItemRunner returns the runner of a single request's group of one. tt
// is a bdd item's truth table, which the caller already materialized to
// validate and key the request; it is not built again.
func (l *Local) ItemRunner(it BatchItem, tt []bool) (*GroupRunner, error) {
	if it.Op == OpBDD {
		return &GroupRunner{l: l, g: groupCell(it), tt: tt}, nil
	}
	return l.NewGroupRunner(groupCell(it))
}

// TruthTable returns the group's materialized truth table (bdd groups
// only), so caching layers can derive the same content key the
// single-request path uses without re-materializing it per item.
func (r *GroupRunner) TruthTable() []bool { return r.tt }

// RunItem computes one item of the runner's group into its wire
// payload. Every transport builds its payloads here, with the figures
// of Local.Simulate, Rank, BDD and Predict, bit for bit, and the
// group's setup already paid. Index, ID and serving-layer flags such as
// Cached are left to the caller. The error, when non-nil, is the
// engine's typed failure for this item alone.
func (r *GroupRunner) RunItem(ctx context.Context, b *budget.Budget, it BatchItem) (BatchItemResult, error) {
	var out BatchItemResult
	switch r.g.Op {
	case OpSimulate:
		res, err := r.l.simulateWith(b, r.art, *it.Simulate)
		if err != nil {
			return out, err
		}
		out.Simulate = &SimulateResponse{
			Circuit:     it.Simulate.Circuit,
			Cycles:      res.Cycles,
			SwitchedCap: res.SwitchedCap,
			Power:       res.Power(),
			Kernel:      res.Kernel,
		}
	case OpRank:
		resp, err := r.l.Rank(ctx, b, *it.Rank)
		if err != nil {
			return out, err
		}
		out.Rank = &resp
	case OpBDD:
		val, err := r.l.BDD(ctx, b, *it.BDD, r.tt)
		if err != nil {
			return out, err
		}
		out.BDD = &BDDResponse{
			Function: it.BDD.Function, Vars: it.BDD.Vars,
			Nodes: val.Nodes, Degraded: val.Degraded,
		}
	case OpPredict:
		resp, err := r.l.predictWith(b, r.art, *it.Predict)
		if err != nil {
			return out, err
		}
		out.Predict = &resp
	}
	return out, nil
}

// BatchHooks is how a serving layer grafts policy into the batch
// pipeline. Every hook is optional; the zero value computes everything
// locally with nil (unlimited) budgets.
type BatchHooks struct {
	// Budget returns a fresh budget for each item the default
	// computation runs; an Item hook builds its own. Budgets are sticky
	// — a tripped one poisons later checks — so each item gets its own,
	// exactly as each single request does; that is also what isolates a
	// failing item from the rest of its group.
	Budget func() *budget.Budget
	// Steps, when positive, is the whole-batch step ceiling: once the
	// aggregate StepsUsed of computed items reaches it, every remaining
	// item fails with a typed BatchErrBudget error.
	Steps int64
	// Group, when set, may take over a whole group's computation —
	// cluster mode forwards groups to their ring owners through it.
	// The returned results are positional (result j answers items[j]);
	// ok=false, or a result count mismatch, computes the group locally.
	Group func(ctx context.Context, g BatchGroup, items []BatchItem) ([]BatchItemResult, bool)
	// Item, when set, runs one item's computation on a budget of its
	// own — the serving layer's seam for memoization and singleflight —
	// and returns the steps the item charged, which count toward Steps
	// (zero for an item it did not compute). The default is
	// runner.RunItem on a Budget budget; the pipeline sets the result's
	// Index, ID and Op.
	Item func(ctx context.Context, runner *GroupRunner, it BatchItem) (res BatchItemResult, steps int64, err error)
	// Emit, when set, receives every result as it is produced: rejected
	// items first, then each group's items in submission order. The
	// streaming transport writes NDJSON lines here.
	Emit func(res BatchItemResult)
	// GroupDone, when set, is called after a group's last result is
	// emitted — the streaming transport's flush point.
	GroupDone func(g BatchGroup)
}

// batchErrorFor maps an item's computation error onto the typed batch
// error taxonomy.
func batchErrorFor(err error) *BatchError {
	kind := BatchErrInternal
	switch {
	case hlerr.IsInput(err):
		kind = BatchErrInput
	case errors.Is(err, budget.ErrExceeded):
		kind = BatchErrBudget
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		kind = BatchErrCanceled
	}
	return &BatchError{Kind: kind, Message: err.Error()}
}

// Batch is the batched estimation pipeline: partition, compile each
// group once, compute every item, fold the results back into submission
// order. It never fails as a whole — every outcome, including a group
// compile failure or an exhausted batch budget, is expressed as typed
// per-item errors — so one poisoned item can never cost a caller the
// other 9,999.
func (l *Local) Batch(ctx context.Context, req BatchRequest, h BatchHooks) BatchResponse {
	plan := PartitionBatch(req.Items)
	results := make([]BatchItemResult, len(req.Items))
	emit := func(r BatchItemResult) {
		results[r.Index] = r
		if h.Emit != nil {
			h.Emit(r)
		}
	}
	for _, bad := range plan.Bad {
		emit(bad)
	}

	runItem := h.Item
	if runItem == nil {
		runItem = func(ctx context.Context, r *GroupRunner, it BatchItem) (BatchItemResult, int64, error) {
			var b *budget.Budget
			if h.Budget != nil {
				b = h.Budget()
			}
			res, err := r.RunItem(ctx, b, it)
			return res, b.StepsUsed(), err
		}
	}

	var stepsUsed int64
	exhausted := false
	for _, g := range plan.Groups {
		if h.Group != nil && !exhausted && ctx.Err() == nil {
			items := make([]BatchItem, len(g.Items))
			for j, idx := range g.Items {
				items[j] = req.Items[idx]
			}
			if rs, ok := h.Group(ctx, g, items); ok && len(rs) == len(g.Items) {
				for j, r := range rs {
					r.Index = g.Items[j]
					emit(r)
				}
				if h.GroupDone != nil {
					h.GroupDone(g)
				}
				continue
			}
		}
		runner, rerr := l.NewGroupRunner(g)
		for _, idx := range g.Items {
			it := req.Items[idx]
			out := BatchItemResult{Index: idx, ID: it.ID, Op: it.Op}
			switch {
			case ctx.Err() != nil:
				out.Error = &BatchError{Kind: BatchErrCanceled, Message: ctx.Err().Error()}
			case exhausted:
				out.Error = &BatchError{Kind: BatchErrBudget, Message: "batch step budget exhausted"}
			case rerr != nil:
				out.Error = batchErrorFor(rerr)
			default:
				r, steps, err := runItem(ctx, runner, it)
				if err != nil {
					out.Error = batchErrorFor(err)
				} else {
					out = r
					out.Index, out.ID, out.Op = idx, it.ID, it.Op
				}
				stepsUsed += steps
				if h.Steps > 0 && stepsUsed >= h.Steps {
					exhausted = true
				}
			}
			emit(out)
		}
		if h.GroupDone != nil {
			h.GroupDone(g)
		}
	}

	resp := BatchResponse{Items: results, Groups: len(plan.Groups), StepsUsed: stepsUsed}
	for i := range results {
		if results[i].Error != nil {
			resp.Failed++
		} else if results[i].Cached() {
			resp.Cached++
		}
	}
	return resp
}
