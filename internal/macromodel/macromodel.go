// Package macromodel implements the RT-level power macro-models of
// §II-C1 in increasing order of accuracy and cost: the constant power-
// factor-approximation (PFA) model, the Landman–Rabaey dual-bit-type
// model, the bitwise data model, the input–output data model, the
// Gupta–Najm three-dimensional table model, and the Wu et al. cycle-
// accurate stepwise-regression model. Every model is characterized
// against gate-level simulation of a module from rtlib and then predicts
// switched capacitance per cycle for new streams.
package macromodel

import (
	"errors"
	"fmt"
	"sync"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/logic"
	"hlpower/internal/memo"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/stats"
)

// Model predicts the average switched capacitance per cycle of a
// characterized module for an operand stream.
type Model interface {
	Name() string
	// PredictCycle estimates the switched capacitance of one cycle given
	// the previous and current operand pairs.
	PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64
	// PredictStream estimates the average switched capacitance per cycle
	// over a whole stream.
	PredictStream(as, bs []uint64) float64
}

// streamAverage implements PredictStream via PredictCycle.
func streamAverage(m Model, as, bs []uint64) float64 {
	if len(as) < 2 {
		return 0
	}
	var total float64
	for i := 1; i < len(as); i++ {
		var bp, bc uint64
		if len(bs) > 0 {
			bp, bc = bs[i-1], bs[i]
		}
		total += m.PredictCycle(as[i-1], bp, as[i], bc)
	}
	return total / float64(len(as)-1)
}

// Trace is one characterization run of a module: the operand streams
// it was driven with and the ground truth they produced — the switched
// capacitance of every cycle after the first, as GroundTruth returns
// it. Fitters regress against a trace and never simulate, so a caller
// that already holds the module's gate-level trace (a serving layer
// running it on a compiled artifact) fits without a second simulation.
// B may be empty for single-operand modules.
type Trace struct {
	Mod   *rtlib.Module
	A, B  []uint64
	Truth []float64
}

// check validates the trace's shape: one truth entry per cycle pair.
func (t Trace) check() error {
	switch {
	case t.Mod == nil:
		return errors.New("macromodel: trace without a module")
	case len(t.B) > 0 && len(t.B) != len(t.A):
		return fmt.Errorf("macromodel: trace stream lengths differ (%d vs %d)", len(t.A), len(t.B))
	case len(t.A) < 2 || len(t.Truth) != len(t.A)-1:
		return fmt.Errorf("macromodel: trace of %d cycles has %d truth entries, want %d", len(t.A), len(t.Truth), len(t.A)-1)
	}
	return nil
}

// pair returns cycle i's previous and current B operands (zero for
// single-operand modules).
func (t Trace) pair(i int) (bPrev, bCur uint64) {
	if len(t.B) > 0 {
		return t.B[i], t.B[i+1]
	}
	return 0, 0
}

// characterize simulates a training set at gate level into a trace.
func characterize(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (Trace, error) {
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return Trace{}, err
	}
	return Trace{Mod: mod, A: trainA, B: trainB, Truth: truth}, nil
}

// CycleTruth extracts the ground truth from a gate-level simulation of
// a stream: the per-cycle switched capacitance with the first cycle
// (warm-up from the baseline) excluded, matching PredictStream's pair
// count. The returned slice aliases res.PerCycleCap.
func CycleTruth(res *sim.Result) ([]float64, error) {
	if len(res.PerCycleCap) < 2 {
		return nil, errors.New("macromodel: stream too short")
	}
	return res.PerCycleCap[1:], nil
}

// GroundTruth measures the per-cycle switched capacitance of the module
// on the given stream by gate-level simulation (see CycleTruth).
func GroundTruth(mod *rtlib.Module, as, bs []uint64, model sim.DelayModel) ([]float64, error) {
	return GroundTruthBudget(nil, mod, as, bs, model) // nil budget never trips
}

// GroundTruthBudget is GroundTruth governed by a resource budget, so
// gate-level characterization respects deadlines, cancellation, and
// injected faults like every other estimation stage.
func GroundTruthBudget(b *budget.Budget, mod *rtlib.Module, as, bs []uint64, model sim.DelayModel) ([]float64, error) {
	res, err := mod.SimulateStreamBudget(b, as, bs, model)
	if err != nil {
		return nil, err
	}
	return CycleTruth(res)
}

// GroundTruthMemo is GroundTruthBudget with content-addressed
// memoization: the per-cycle capacitance trace is keyed on the module's
// netlist structure, the delay model, and the exact operand streams, so
// characterizing several macro-models against the same module and
// training set performs one gate-level simulation instead of one per
// model. Each call — hit or miss — returns its own copy of the trace,
// so callers may mutate the result freely.
//
// With a nil cache, or while a fault-injection plan is armed on the
// budget, it falls through to GroundTruthBudget: chaos results are
// never stored and never served.
func GroundTruthMemo(c *memo.Cache, b *budget.Budget, mod *rtlib.Module, as, bs []uint64, model sim.DelayModel) ([]float64, error) {
	return GroundTruthMemoRun(c, b, mod, as, bs, model, func() (*sim.Result, error) {
		return mod.SimulateStreamBudget(b, as, bs, model)
	})
}

// GroundTruthMemoRun is GroundTruthMemo with the simulation supplied by
// the caller: on a miss (or with no cache, or a fault-armed b) run must
// simulate exactly (as, bs) on mod under model, charging b — for
// instance on a compiled serving artifact, whose runs are Float64bits-
// identical to the one-shot path — and the trace is cut from its
// result. Cache keys and entries are those of GroundTruthMemo, so both
// entry points share hits. The entry is a memo.Charged one: a hit
// charges b the steps the simulation it replaces charged, so whether a
// budgeted caller trips its step limit never depends on the cache.
func GroundTruthMemoRun(c *memo.Cache, b *budget.Budget, mod *rtlib.Module, as, bs []uint64, model sim.DelayModel, run func() (*sim.Result, error)) ([]float64, error) {
	truth := func() ([]float64, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		return CycleTruth(res)
	}
	if c == nil || b.FaultArmed() {
		return truth()
	}
	key := func() memo.Key {
		enc := memo.NewEnc()
		enc.String("macromodel/ground-truth/v1")
		memo.HashNetlist(enc, mod.Net)
		enc.Int(int(model))
		enc.Uint64s(as)
		enc.Uint64s(bs)
		return enc.Key()
	}
	t, _, err := memo.Charged(c, b, key, func() ([]float64, int64, error) {
		t, err := truth()
		return t, int64(len(t))*8 + 24, err
	})
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), t...), nil
}

// MeanAbs returns the mean of xs (handy for averaging ground truth).
func MeanAbs(xs []float64) float64 { return stats.Mean(xs) }

// ---------------------------------------------------------------------
// PFA: constant model.

// PFAModel is the power-factor-approximation technique [39]: a single
// experimentally determined constant per module activation.
type PFAModel struct {
	ModuleName string
	CapPerOp   float64
}

// FitPFA characterizes the constant as the mean switched capacitance
// under pseudorandom data.
func FitPFA(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*PFAModel, error) {
	t, err := characterize(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	return FitPFATrace(t)
}

// FitPFATrace is FitPFA over an already simulated training trace.
func FitPFATrace(t Trace) (*PFAModel, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	return &PFAModel{ModuleName: t.Mod.Name, CapPerOp: stats.Mean(t.Truth)}, nil
}

func (m *PFAModel) Name() string { return "pfa" }

func (m *PFAModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 { return m.CapPerOp }

func (m *PFAModel) PredictStream(as, bs []uint64) float64 { return m.CapPerOp }

// ---------------------------------------------------------------------
// Dual bit type model.

// DBTModel is the Landman–Rabaey dual-bit-type model [40]: low-order
// bits are treated as uniform white noise with a single capacitance
// coefficient Cu, and the sign region is characterized by coefficients
// per sign-transition class (++, +-, -+, --), all per operand.
type DBTModel struct {
	ModuleName string
	Width      int
	Breakpoint int // bits >= Breakpoint form the sign region
	// Coefficients: intercept, Cu (per low-region toggle), and the four
	// sign-class coefficients per operand pair.
	Intercept float64
	Cu        float64
	CSign     [4]float64 // indexed by signClass
}

// signClass maps a (prevSign, curSign) pair to 0..3: ++, +-, -+, --.
func signClass(prevNeg, curNeg bool) int {
	idx := 0
	if prevNeg {
		idx += 2
	}
	if curNeg {
		idx++
	}
	return idx
}

func dbtFeatures(width, bp int, aPrev, bPrev, aCur, bCur uint64, hasB bool) []float64 {
	lowMask := bitutil.Mask(bp)
	f := make([]float64, 5)
	f[0] = float64(bitutil.OnesCount((aPrev ^ aCur) & lowMask))
	if hasB {
		f[0] += float64(bitutil.OnesCount((bPrev ^ bCur) & lowMask))
	}
	count := func(prev, cur uint64) {
		pn := bitutil.Bit(prev, width-1)
		cn := bitutil.Bit(cur, width-1)
		f[1+signClass(pn, cn)]++
	}
	count(aPrev, aCur)
	if hasB {
		count(bPrev, bCur)
	}
	return f
}

// FitDBT characterizes the dual-bit-type model. The breakpoint between
// the white-noise and sign regions is detected from the training stream
// as the lowest bit whose activity falls below half the LSB activity
// (for uniform data the sign region is just the top bit).
func FitDBT(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*DBTModel, error) {
	t, err := characterize(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	return FitDBTTrace(t)
}

// FitDBTTrace is FitDBT over an already simulated training trace.
func FitDBTTrace(t Trace) (*DBTModel, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	w := t.Mod.Width()
	acts := bitutil.BitActivities(t.A, w)
	if len(t.B) > 0 {
		bacts := bitutil.BitActivities(t.B, w)
		for i := range acts {
			acts[i] = (acts[i] + bacts[i]) / 2
		}
	}
	bp := w - 1 // at least the top bit is "sign"
	for b := w - 1; b >= 1; b-- {
		if acts[b] < acts[0]/2 {
			bp = b
		} else {
			break
		}
	}
	hasB := len(t.B) > 0
	// No intercept: the four sign-class counts sum to the operand count
	// every cycle, so a constant column would be collinear with them.
	X := make([][]float64, len(t.Truth))
	for i := range t.Truth {
		bp0, bc := t.pair(i)
		X[i] = dbtFeatures(w, bp, t.A[i], bp0, t.A[i+1], bc, hasB)
	}
	fit, err := stats.OLS(X, t.Truth)
	if err != nil {
		return nil, fmt.Errorf("macromodel: DBT fit: %w", err)
	}
	m := &DBTModel{ModuleName: t.Mod.Name, Width: w, Breakpoint: bp, Cu: fit.Beta[0]}
	copy(m.CSign[:], fit.Beta[1:5])
	return m, nil
}

func (m *DBTModel) Name() string { return "dual-bit-type" }

func (m *DBTModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	feat := dbtFeatures(m.Width, m.Breakpoint, aPrev, bPrev, aCur, bCur, true)
	p := m.Intercept + m.Cu*feat[0] // Intercept stays 0 from fitting
	for i := 0; i < 4; i++ {
		p += m.CSign[i] * feat[1+i]
	}
	return p
}

func (m *DBTModel) PredictStream(as, bs []uint64) float64 { return streamAverage(m, as, bs) }

// ---------------------------------------------------------------------
// Bitwise data model.

// BitwiseModel assigns a regression capacitance to every input pin:
// cap = c0 + Σ C_i·E_i where E_i is pin i's toggle this cycle.
type BitwiseModel struct {
	ModuleName string
	WidthA     int
	WidthB     int
	Intercept  float64
	Coef       []float64 // per input bit: a bits then b bits
}

func bitwiseFeatures(wa, wb int, aPrev, bPrev, aCur, bCur uint64) []float64 {
	f := make([]float64, wa+wb)
	da := aPrev ^ aCur
	for i := 0; i < wa; i++ {
		if bitutil.Bit(da, i) {
			f[i] = 1
		}
	}
	db := bPrev ^ bCur
	for i := 0; i < wb; i++ {
		if bitutil.Bit(db, i) {
			f[wa+i] = 1
		}
	}
	return f
}

// FitBitwise characterizes the per-pin capacitances by least squares.
func FitBitwise(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*BitwiseModel, error) {
	t, err := characterize(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	return FitBitwiseTrace(t)
}

// FitBitwiseTrace is FitBitwise over an already simulated training
// trace.
func FitBitwiseTrace(t Trace) (*BitwiseModel, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	wa := len(t.Mod.A)
	wb := len(t.Mod.B)
	X := make([][]float64, len(t.Truth))
	for i := range t.Truth {
		bp, bc := t.pair(i)
		X[i] = append([]float64{1}, bitwiseFeatures(wa, wb, t.A[i], bp, t.A[i+1], bc)...)
	}
	fit, err := stats.OLS(X, t.Truth)
	if err != nil {
		return nil, fmt.Errorf("macromodel: bitwise fit: %w", err)
	}
	return &BitwiseModel{ModuleName: t.Mod.Name, WidthA: wa, WidthB: wb,
		Intercept: fit.Beta[0], Coef: fit.Beta[1:]}, nil
}

func (m *BitwiseModel) Name() string { return "bitwise" }

func (m *BitwiseModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	f := bitwiseFeatures(m.WidthA, m.WidthB, aPrev, bPrev, aCur, bCur)
	p := m.Intercept
	for i, c := range m.Coef {
		p += c * f[i]
	}
	return p
}

func (m *BitwiseModel) PredictStream(as, bs []uint64) float64 { return streamAverage(m, as, bs) }

// ---------------------------------------------------------------------
// Input–output data model.

// IOModel regresses on the mean input activity and the mean (zero-delay)
// output activity: cap = c0 + CI·EI + CO·EO. Output activity comes from
// the module's functional behaviour — the "fast functional simulation"
// of [41] — settled 64 cycles at a time on the module's compiled
// netlist for training and for PredictStream, and by per-cycle
// zero-delay evaluation for PredictCycle.
type IOModel struct {
	ModuleName string
	WidthA     int
	WidthB     int
	WidthOut   int
	Intercept  float64
	CI, CO     float64

	mod  *rtlib.Module
	comp *sim.Compiled

	// outFn is PredictCycle's per-cycle evaluator, built on first use:
	// stream prediction never needs it.
	outOnce sync.Once
	outFn   func(a, b uint64) uint64
}

// FitIO characterizes the input–output model.
func FitIO(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*IOModel, error) {
	t, err := characterize(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	// Output activity is zero-delay by definition, whatever delay model
	// the ground truth was simulated under.
	comp, err := sim.Compile(mod.Net, sim.Options{})
	if err != nil {
		return nil, err
	}
	return FitIOTrace(nil, comp, t)
}

// FitIOTrace is FitIO over an already simulated training trace. comp
// must be t.Mod's netlist compiled under the zero-delay model; the
// training stream's functional outputs are settled on it, charged to b.
// The model keeps comp for PredictStream.
func FitIOTrace(b *budget.Budget, comp *sim.Compiled, t Trace) (*IOModel, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	out, err := outputWords(b, comp, t.Mod, t.A, t.B)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, len(t.Truth))
	for i := range t.Truth {
		bp, bc := t.pair(i)
		X[i] = []float64{1, ioInput(t.A[i], bp, t.A[i+1], bc), ioOutput(out[i], out[i+1])}
	}
	fit, err := stats.OLS(X, t.Truth)
	if err != nil {
		return nil, fmt.Errorf("macromodel: IO fit: %w", err)
	}
	return &IOModel{ModuleName: t.Mod.Name, WidthA: len(t.Mod.A), WidthB: len(t.Mod.B),
		WidthOut: len(t.Mod.Net.Outputs), Intercept: fit.Beta[0], CI: fit.Beta[1], CO: fit.Beta[2],
		mod: t.Mod, comp: comp}, nil
}

// outputWords settles the module's functional outputs for every cycle
// of an operand stream on its compiled netlist.
func outputWords(b *budget.Budget, comp *sim.Compiled, mod *rtlib.Module, as, bs []uint64) ([]uint64, error) {
	return comp.OutputWords(b, func(c int) uint64 {
		var bc uint64
		if len(bs) > 0 {
			bc = bs[c]
		}
		return mod.InputWord(as[c], bc)
	}, len(as))
}

// ioInput and ioOutput are the model's two activity features: operand
// and output Hamming distances between consecutive cycles.
func ioInput(aPrev, bPrev, aCur, bCur uint64) float64 {
	return float64(bitutil.Hamming(aPrev, aCur) + bitutil.Hamming(bPrev, bCur))
}

func ioOutput(oPrev, oCur uint64) float64 { return float64(bitutil.Hamming(oPrev, oCur)) }

// functionalOutput builds a closure evaluating the module's settled
// outputs by topological zero-delay evaluation, one cycle per call —
// the evaluator of the per-cycle PredictCycle paths.
func functionalOutput(mod *rtlib.Module) (func(a, b uint64) uint64, error) {
	order, err := mod.Net.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := mod.Net
	fn := func(a, b uint64) uint64 {
		vals := make([]bool, len(n.Gates))
		for i, s := range mod.A {
			vals[s] = bitutil.Bit(a, i)
		}
		for i, s := range mod.B {
			vals[s] = bitutil.Bit(b, i)
		}
		var buf []bool
		for _, id := range order {
			g := n.Gates[id]
			if g.Kind == logic.Input || g.Kind == logic.Latch || g.Kind.IsSequential() {
				continue
			}
			buf = buf[:0]
			for _, f := range g.Fanin {
				buf = append(buf, vals[f])
			}
			vals[id] = logic.EvalGate(g.Kind, buf)
		}
		var w uint64
		for i, o := range n.Outputs {
			if vals[o] {
				w |= 1 << uint(i)
			}
		}
		return w
	}
	return fn, nil
}

func (m *IOModel) Name() string { return "input-output" }

// predict is the fitted regression on one cycle's features.
func (m *IOModel) predict(ei, eo float64) float64 { return m.Intercept + m.CI*ei + m.CO*eo }

func (m *IOModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	m.outOnce.Do(func() {
		var err error
		if m.outFn, err = functionalOutput(m.mod); err != nil {
			// Unreachable for a fitted model: fitting compiled this
			// netlist, which orders it topologically.
			panic(err)
		}
	})
	return m.predict(ioInput(aPrev, bPrev, aCur, bCur), ioOutput(m.outFn(aPrev, bPrev), m.outFn(aCur, bCur)))
}

// PredictStream settles the stream's functional outputs in one packed
// pass and averages the per-cycle prediction. The sum runs in the same
// order over the same features as the per-cycle path, so the result is
// Float64bits-identical to averaging PredictCycle.
func (m *IOModel) PredictStream(as, bs []uint64) float64 {
	p, err := m.predictStream(nil, as, bs)
	if err != nil {
		// Unreachable: with a nil budget the only failures are shape
		// errors, which fitting already ruled out for this netlist.
		panic(err)
	}
	return p
}

// predictStream is PredictStream with the output evaluation charged to
// b.
func (m *IOModel) predictStream(b *budget.Budget, as, bs []uint64) (float64, error) {
	if len(as) < 2 {
		return 0, nil
	}
	out, err := outputWords(b, m.comp, m.mod, as, bs)
	if err != nil {
		return 0, err
	}
	var total float64
	for i := 1; i < len(as); i++ {
		var bp, bc uint64
		if len(bs) > 0 {
			bp, bc = bs[i-1], bs[i]
		}
		total += m.predict(ioInput(as[i-1], bp, as[i], bc), ioOutput(out[i-1], out[i]))
	}
	return total / float64(len(as)-1), nil
}

// PredictStreamBudget is m.PredictStream with any simulation the model
// performs charged to b — the input–output model settles the stream's
// functional outputs at gate level; the other models predict from the
// operands alone and never touch b.
func PredictStreamBudget(b *budget.Budget, m Model, as, bs []uint64) (float64, error) {
	if io, ok := m.(*IOModel); ok {
		return io.predictStream(b, as, bs)
	}
	return m.PredictStream(as, bs), nil
}
