package experiment

// SyntheticAxisTrs exposes syntheticAxisTrs to the external test
// package, whose golden test also needs the scenario library.
var SyntheticAxisTrs = syntheticAxisTrs
