package fsm

import (
	"fmt"
	"math/rand"
)

// EncodingByName constructs a named state encoding for the machine —
// the adapter the recipe layer's re-encoding passes select from.
// Seeded encodings ("random", "low-power") draw from rng; the rest
// ignore it. "low-power" anneals against p, the machine's transition
// probabilities (§III-H), and fails with pErr, the error computing them
// reported, when that is non-nil; the other encodings ignore both.
func EncodingByName(f *FSM, name string, p [][]float64, pErr error, rng *rand.Rand) (*Encoding, error) {
	switch name {
	case "binary":
		return BinaryEncoding(f.NumStates), nil
	case "gray":
		return GrayEncoding(f.NumStates), nil
	case "one-hot":
		return OneHotEncoding(f.NumStates), nil
	case "random":
		return RandomEncoding(f.NumStates, minWidth(f.NumStates), rng)
	case "low-power":
		if pErr != nil {
			return nil, pErr
		}
		return LowPowerEncoding(f, p, 200, rng), nil
	default:
		return nil, fmt.Errorf("fsm: unknown encoding %q", name)
	}
}
