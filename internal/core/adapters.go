package core

import (
	"errors"

	"hlpower/internal/bitutil"
	"hlpower/internal/entropy"
	"hlpower/internal/logic"
	"hlpower/internal/macromodel"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/trace"
)

// GateLevelEstimator estimates a netlist's average power by full
// simulation — the slowest, most accurate rung of the Fig. 1 ladder.
type GateLevelEstimator struct {
	Net    *logic.Netlist
	Inputs sim.InputProvider
	Cycles int
	Opts   sim.Options
}

// Name identifies the estimator.
func (e *GateLevelEstimator) Name() string { return "gate-simulation" }

// Level reports the abstraction level.
func (e *GateLevelEstimator) Level() Level { return Gate }

// Estimate runs the simulation and returns average power. It uses the
// one-shot RunPacked, which compiles the netlist and runs it on the
// fused 64-lane kernel when the workload allows and degrades to the
// scalar engine for sequential netlists and event-driven runs, with
// results bit-identical to the serial engine either way.
func (e *GateLevelEstimator) Estimate() (float64, error) {
	if e.Net == nil || e.Inputs == nil || e.Cycles <= 0 {
		return 0, errors.New("core: gate estimator needs a netlist, inputs, and cycles")
	}
	res, err := sim.RunPacked(e.Net, e.Inputs, e.Cycles, e.Opts)
	if err != nil {
		return 0, err
	}
	return res.Power(), nil
}

// MacroModelEstimator evaluates a characterized RT-level macro-model on
// an operand stream — no gate-level simulation of the target workload.
type MacroModelEstimator struct {
	Model  macromodel.Model
	A, B   []uint64
	Module *rtlib.Module // optional, for the name only
}

// Name identifies the estimator by its macro-model.
func (e *MacroModelEstimator) Name() string { return "macro:" + e.Model.Name() }

// Level reports the abstraction level.
func (e *MacroModelEstimator) Level() Level { return RTL }

// Estimate evaluates the macro-model over the stream.
func (e *MacroModelEstimator) Estimate() (float64, error) {
	if e.Model == nil || len(e.A) < 2 {
		return 0, errors.New("core: macro estimator needs a model and a stream")
	}
	return 0.5 * e.Model.PredictStream(e.A, e.B), nil
}

// EntropyEstimator applies the information-theoretic estimate of §II-B1
// to a module: input entropy from the stream, output entropy from a
// quick functional simulation, total capacitance from the structure.
type EntropyEstimator struct {
	Module *rtlib.Module
	A, B   []uint64
	Vdd    float64
	Freq   float64
}

// Name identifies the estimator.
func (e *EntropyEstimator) Name() string { return "entropy" }

// Level reports the abstraction level.
func (e *EntropyEstimator) Level() Level { return Behavioral }

// Estimate computes the Marculescu-model power figure.
func (e *EntropyEstimator) Estimate() (float64, error) {
	if e.Module == nil || len(e.A) < 2 {
		return 0, errors.New("core: entropy estimator needs a module and a stream")
	}
	vdd, freq := e.Vdd, e.Freq
	if vdd == 0 {
		vdd = 1
	}
	if freq == 0 {
		freq = 1
	}
	res, err := e.Module.SimulateStream(e.A, e.B, sim.ZeroDelay)
	if err != nil {
		return 0, err
	}
	nIn := len(e.Module.Net.Inputs)
	nOut := len(e.Module.Net.Outputs)
	outWords := make([]uint64, len(res.Outputs))
	for i, o := range res.Outputs {
		outWords[i] = bitutil.FromBits(o)
	}
	combined := append(append([]uint64{}, e.A...), e.B...)
	hin := trace.BitEntropy(combined, len(e.Module.A)) / float64(len(e.Module.A))
	hout := trace.BitEntropy(outWords, nOut) / float64(nOut)
	havg := entropy.MarculescuHavg(nIn, nOut, hin, hout)
	return entropy.Power(e.Module.Net.TotalCapacitance(), havg, vdd, freq), nil
}
