package service

import "hlpower/internal/memo"

// Keys derives the content keys of service requests. The request
// fields fully determine the derived netlist and operand streams
// (ModuleFor, OperandStreams, and TruthTable are deterministic), which
// makes the raw fields a canonical content encoding one level above
// the netlist hash the library layers use.
//
// MaxSteps is the serving layer's per-request step allowance. It is
// budget-relevant — it decides which requests trip or degrade — so two
// servers configured differently never share entries through a
// snapshot, and reconfiguring a server cannot replay results the new
// limits would have rejected. In a cluster every node must therefore
// run the same MaxSteps, or keys (and thus ownership) diverge by
// design: a peer with different limits is a different service.
type Keys struct {
	MaxSteps int64
}

// enc starts an endpoint's content key: a versioned endpoint tag plus
// the budget-relevant server options.
func (k Keys) enc(endpoint string) *memo.Enc {
	e := memo.NewEnc()
	e.String("powerd/" + endpoint + "/v1")
	e.Int64(k.MaxSteps)
	return e
}

// Simulate derives the content key of a simulate request. Workers is
// left out: the service ignores it, so requests that differ only in
// Workers share one entry.
func (k Keys) Simulate(req SimulateRequest) memo.Key {
	e := k.enc("simulate")
	e.String(req.Circuit)
	e.Int(req.Width)
	e.Int(req.Cycles)
	e.Int64(req.Seed)
	return e.Key()
}

// Rank is the whole-response content key of a rank request.
func (k Keys) Rank(req RankRequest) memo.Key {
	e := k.enc("rank")
	e.Int(req.Width)
	e.Int(req.Cycles)
	e.Int64(req.Seed)
	return e.Key()
}

// BDD hashes the materialized truth table rather than the function
// name, so any two requests naming the same boolean function share one
// entry ("majority" and "and" over one variable, say). AllowDegraded
// is deliberately excluded: it changes failure handling, not the exact
// result, and degraded outcomes are never stored.
func (k Keys) BDD(tt []bool, vars int) memo.Key {
	e := k.enc("bdd")
	e.Int(vars)
	e.Bools(tt)
	return e.Key()
}

// Group derives the routing key of one batch partition group: the
// group's shared-artifact identity (op plus netlist or function), one
// level above the per-item keys. Cluster mode hashes it onto the ring
// so every item over one netlist lands on the owner of that netlist's
// compiled artifacts and cache entries.
func (k Keys) Group(g BatchGroup) memo.Key {
	e := k.enc("batch-group")
	e.String(g.Op)
	e.String(g.Circuit)
	e.Int(g.Width)
	e.String(g.Function)
	e.Int(g.Vars)
	return e.Key()
}

// Predict derives the content key of a predict request.
func (k Keys) Predict(req PredictRequest) memo.Key {
	e := k.enc("predict")
	e.String(req.Circuit)
	e.Int(req.Width)
	e.String(req.Model)
	e.Int(req.Train)
	e.Int(req.Eval)
	e.Int64(req.Seed)
	return e.Key()
}
