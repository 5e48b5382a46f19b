package macromodel

// FunctionalOutput exposes the interpreted per-cycle output evaluator
// to the external predict-equivalence tests, which build their
// reference on it.
var FunctionalOutput = functionalOutput
