package stats

// The kernel tests and benchmarks live in package stats_test, which may
// import the packages that import stats (the presets' samples come from
// them). These are the unexported names they exercise.

const RadixMinLen = radixMinLen

var RadixSortFloats = radixSortFloats
