package macromodel_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/macromodel"
	"hlpower/internal/memo"
	"hlpower/internal/rtlib"
	"hlpower/internal/service"
	"hlpower/internal/sim"
	"hlpower/internal/stats"
)

// oneShotTruth is the reference ground truth: the serial engine's
// gate-level simulation of the stream, first cycle dropped.
func oneShotTruth(mod *rtlib.Module, as, bs []uint64) ([]float64, error) {
	inputs := func(c int) []bool { return mod.InputVector(as[c], bs[c]) }
	res, err := sim.RunBudget(nil, mod.Net, inputs, len(as), sim.Options{})
	if err != nil {
		return nil, err
	}
	return macromodel.CycleTruth(res)
}

// referencePredict computes a predict response without the serving
// artifact: both ground-truth traces come from one-shot simulations, the
// pfa/dbt/bitwise models from the exported fitters (which simulate
// their own training trace), and the io model's output activity from
// the interpreted per-cycle evaluator, for training and prediction.
func referencePredict(req service.PredictRequest) (service.PredictResponse, error) {
	mod, err := service.ModuleFor(req.Circuit, req.Width)
	if err != nil {
		return service.PredictResponse{}, err
	}
	trainA, trainB := service.OperandStreams(req.Train, req.Width, req.Seed)
	evalA, evalB := service.OperandStreams(req.Eval, req.Width, req.Seed+1)
	var predict func(as, bs []uint64) float64
	switch req.Model {
	case "pfa":
		m, err := macromodel.FitPFA(mod, trainA, trainB, sim.ZeroDelay)
		if err != nil {
			return service.PredictResponse{}, err
		}
		predict = m.PredictStream
	case "dbt":
		m, err := macromodel.FitDBT(mod, trainA, trainB, sim.ZeroDelay)
		if err != nil {
			return service.PredictResponse{}, err
		}
		predict = m.PredictStream
	case "bitwise":
		m, err := macromodel.FitBitwise(mod, trainA, trainB, sim.ZeroDelay)
		if err != nil {
			return service.PredictResponse{}, err
		}
		predict = m.PredictStream
	case "io":
		truth, err := oneShotTruth(mod, trainA, trainB)
		if err != nil {
			return service.PredictResponse{}, err
		}
		outFn, err := macromodel.FunctionalOutput(mod)
		if err != nil {
			return service.PredictResponse{}, err
		}
		// feats evaluates the stream's outputs cycle by cycle and returns
		// the io model's (EI, EO) per cycle pair (i-1, i).
		feats := func(as, bs []uint64) (ei, eo []float64) {
			out := make([]uint64, len(as))
			for i := range as {
				out[i] = outFn(as[i], bs[i])
			}
			for i := 1; i < len(as); i++ {
				ei = append(ei, float64(bitutil.Hamming(as[i-1], as[i])+bitutil.Hamming(bs[i-1], bs[i])))
				eo = append(eo, float64(bitutil.Hamming(out[i-1], out[i])))
			}
			return ei, eo
		}
		ei, eo := feats(trainA, trainB)
		X := make([][]float64, len(truth))
		for i := range X {
			X[i] = []float64{1, ei[i], eo[i]}
		}
		fit, err := stats.OLS(X, truth)
		if err != nil {
			return service.PredictResponse{}, fmt.Errorf("macromodel: IO fit: %w", err)
		}
		predict = func(as, bs []uint64) float64 {
			ei, eo := feats(as, bs)
			var total float64
			for i := range ei {
				total += fit.Beta[0] + fit.Beta[1]*ei[i] + fit.Beta[2]*eo[i]
			}
			return total / float64(len(ei))
		}
	default:
		return service.PredictResponse{}, fmt.Errorf("unknown model %q", req.Model)
	}
	evalTruth, err := oneShotTruth(mod, evalA, evalB)
	if err != nil {
		return service.PredictResponse{}, err
	}
	measured := stats.Mean(evalTruth)
	predicted := predict(evalA, evalB)
	errPct := 0.0
	if measured != 0 {
		errPct = 100 * math.Abs(predicted-measured) / measured
	}
	return service.PredictResponse{
		Circuit: req.Circuit, Model: req.Model,
		Predicted: predicted, Measured: measured, AbsErrPct: errPct,
	}, nil
}

// samePredict fails unless got reproduces want bit for bit, or both
// failed with the same message.
func samePredict(t *testing.T, what string, got service.PredictResponse, gotErr error, want service.PredictResponse, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"predicted", got.Predicted, want.Predicted},
		{"measured", got.Measured, want.Measured},
		{"abs_err_pct", got.AbsErrPct, want.AbsErrPct},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s %v (%#x), reference %v (%#x)", what, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if got.Circuit != want.Circuit || got.Model != want.Model || got.Cached {
		t.Fatalf("%s: response %+v, reference %+v", what, got, want)
	}
}

// TestPredictMatchesOneShotReference pins the serving path's exactness:
// Local.Predict and a batch GroupRunner — both running the training and
// evaluation traces on the cached artifact and the io model's outputs
// on the packed evaluator — reproduce the one-shot, interpreted
// reference Float64bits-exactly for every circuit, width, model and
// train/eval length pairing, including lengths around the 64-lane block
// and the 2-cycle minimum. The batch side shares an estimate cache, so
// it also covers evaluation traces replayed from the memo.
func TestPredictMatchesOneShotReference(t *testing.T) {
	lengths := []int{2, 63, 64, 65, 512}
	models := []string{"pfa", "dbt", "bitwise", "io"}
	var single service.Local
	cache := memo.New(memo.Options{})
	batch := service.Local{Cache: func() *memo.Cache { return cache }}
	for _, circuit := range []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"} {
		for _, width := range []int{2, 4, 8, 13, 16} {
			t.Run(fmt.Sprintf("%s/%d", circuit, width), func(t *testing.T) {
				runner, err := batch.NewGroupRunner(service.BatchGroup{Op: service.OpPredict, Circuit: circuit, Width: width})
				if err != nil {
					t.Fatal(err)
				}
				for _, model := range models {
					for _, train := range lengths {
						for _, eval := range lengths {
							req := service.PredictRequest{Circuit: circuit, Width: width, Model: model,
								Train: train, Eval: eval, Seed: int64(31*train + eval)}
							what := fmt.Sprintf("%s train=%d eval=%d", model, train, eval)
							want, wantErr := referencePredict(req)
							got, err := single.Predict(context.Background(), nil, req)
							samePredict(t, "Local.Predict "+what, got, err, want, wantErr)
							res, err := runner.RunItem(context.Background(), nil, service.BatchItem{Op: service.OpPredict, Predict: &req})
							if err == nil {
								got = *res.Predict
							}
							samePredict(t, "GroupRunner.RunItem "+what, got, err, want, wantErr)
						}
					}
				}
			})
		}
	}
}

// FuzzPredictEquivalence: any request shape inside the serving limits
// (lengths capped to keep iterations fast) predicts Float64bits-
// identically to the one-shot, interpreted reference.
func FuzzPredictEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(3), uint16(64), uint16(65), int64(1))
	f.Add(uint8(2), uint8(16), uint8(3), uint16(63), uint16(2), int64(7))
	f.Add(uint8(4), uint8(13), uint8(1), uint16(130), uint16(200), int64(-3))
	circuits := []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"}
	models := []string{"pfa", "dbt", "bitwise", "io"}
	var svc service.Local
	f.Fuzz(func(t *testing.T, circuit, width, model uint8, train, eval uint16, seed int64) {
		req := service.PredictRequest{
			Circuit: circuits[int(circuit)%len(circuits)],
			Width:   2 + int(width)%(service.MaxWidth-1),
			Model:   models[int(model)%len(models)],
			Train:   2 + int(train)%300,
			Eval:    2 + int(eval)%300,
			Seed:    seed,
		}
		want, wantErr := referencePredict(req)
		got, err := svc.Predict(context.Background(), nil, req)
		samePredict(t, fmt.Sprintf("%+v", req), got, err, want, wantErr)
	})
}
